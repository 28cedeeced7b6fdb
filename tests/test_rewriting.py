"""Matching, reduction and the length-reducing check."""

import pytest
from hypothesis import given, strategies as st

from cayleyforge import (
    Match,
    RewriteRule,
    RewritingSystem,
    RuleSchema,
    check_length_reducing,
    find_matches,
    first_match,
    is_irreducible,
    normal_form,
    reduction_steps,
    words_equal,
)
from cayleyforge.rewriting import IncompleteSystemError

import oracles


def test_find_matches_concrete_rule(sys_n):
    matches = find_matches(sys_n, "cddc")
    assert matches == [Match(rule_index=0, position=0, matched_length=4)]


def test_find_matches_none(sys_m):
    assert find_matches(sys_m, "aba") == []


def test_find_matches_schema_reports_full_run(sys_m):
    matches = find_matches(sys_m, "abbba")
    assert matches == [Match(rule_index=0, position=0, matched_length=5, exponent=3)]


@pytest.mark.parametrize("n", range(2, 13))
def test_schema_match_exponent(sys_m, n):
    word = "a" + "b" * n + "a"
    matches = find_matches(sys_m, word)
    assert len(matches) == 1
    assert matches[0].exponent == n
    assert matches[0].matched_length == len(word)


def test_find_matches_orders_by_position_then_rule(sys_m):
    matches = find_matches(sys_m, "abbabba")
    assert [(m.position, m.exponent) for m in matches] == [(0, 2), (3, 2)]


def test_find_matches_rejects_foreign_symbol(sys_n):
    """Also late in a word whose first factor already matches."""
    for check in (find_matches, first_match, normal_form):
        for word in ("cadc", "cddcdcdcda"):
            with pytest.raises(ValueError) as excinfo:
                check(sys_n, word)
            assert str(excinfo.value) == "symbol 'a' is not in the alphabet {c, d}"


def test_single_step(sys_n):
    # the first rewrite of a reduction takes one step from the word
    assert reduction_steps(sys_n, "cddc")[0].result == "cdc"
    assert reduction_steps(sys_n, "cdddcc")[0].result == "cdc"


def test_single_step_irreducible(sys_m):
    assert reduction_steps(sys_m, "bbb") == []


def test_normal_form_examples(sys_m, sys_n):
    assert normal_form(sys_n, "cdddcdc") == "cdc"
    assert normal_form(sys_m, "") == ""
    assert normal_form(sys_m, "abbabba") == "ababa"


def test_normal_form_matches_all_strategy_oracle(sys_m):
    rules = oracles.concrete_rules(sys_m, schema_bound=12)
    endpoints = oracles.reachable_normal_forms("abbabba", rules)
    assert endpoints == frozenset({"ababa"})
    assert normal_form(sys_m, "abbabba") == "ababa"


def test_is_irreducible(sys_m, sys_n):
    assert is_irreducible(sys_m, "aba")
    assert is_irreducible(sys_m, "ab")
    assert not is_irreducible(sys_n, "cdddd")
    # every left side absent, by direct scan
    assert all(lhs not in "cdddc" for lhs, _ in oracles.concrete_rules(sys_n, 1))
    assert is_irreducible(sys_n, "cdddc")
    assert is_irreducible(sys_m, "")
    assert is_irreducible(sys_n, "")


@pytest.mark.parametrize("word", ["xab", "abbax", "xcddc", "cddcx"])
def test_is_irreducible_rejects_foreign_symbol(sys_m, sys_n, word):
    """Also after a factor that already matches: ``abba`` through M's
    schema, ``cddc`` through N's trie of concrete left sides."""
    system, alphabet = (sys_n, "{c, d}") if "c" in word else (sys_m, "{a, b}")
    with pytest.raises(ValueError) as excinfo:
        is_irreducible(system, word)
    assert str(excinfo.value) == f"symbol 'x' is not in the alphabet {alphabet}"


def test_reduction_steps_record_rule_and_position(sys_m):
    steps = reduction_steps(sys_m, "abbabba")
    assert [s.result for s in steps] == ["ababba", "ababa"]
    assert [(s.match.position, s.match.exponent) for s in steps] == [(0, 2), (2, 2)]


def test_check_length_reducing_passes_builtin(sys_m, sys_n):
    assert check_length_reducing(sys_n) == () and sys_n.rule_count() == 4
    assert check_length_reducing(sys_m) == ()  # shortest schema instance: length 4 > 3


def test_check_length_reducing_failure_lists_rule():
    system = RewritingSystem(("a", "b"), (RewriteRule("a", "ab"),))
    assert check_length_reducing(system) == (0,)


def test_reduction_refuses_non_shortening_rule():
    system = RewritingSystem(("a", "b"), (RewriteRule("ab", "ba"),))
    with pytest.raises(ValueError, match="not length-reducing"):
        normal_form(system, "ab")


def test_words_equal(sys_m, sys_n):
    assert words_equal(sys_m, "abbba", "aba")
    assert not words_equal(sys_n, "cd", "dc")
    assert words_equal(sys_n, "cdddcc", "cddc")


def test_words_equal_needs_certificate():
    system = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"),))
    with pytest.raises(IncompleteSystemError):
        words_equal(system, "ab", "a")


def test_schema_rejects_ambiguous_run_boundary():
    with pytest.raises(ValueError, match="suffix may not start"):
        RuleSchema(prefix="a", pumped="b", min_exponent=2, suffix="ba", rhs="a")
    with pytest.raises(ValueError, match="prefix may not end"):
        RuleSchema(prefix="ab", pumped="b", min_exponent=2, suffix="a", rhs="a")


def test_apply_match_splices_rhs(sys_n):
    # a step splices the first match's rhs in place of its factor
    match = find_matches(sys_n, "dcddcd")[0]
    [step] = reduction_steps(sys_n, "dcddcd")
    assert step.match == match
    assert step.result == "dcdcd"


@given(st.text(alphabet="ab", max_size=40))
def test_reduction_halts_within_length_steps(word):
    from cayleyforge import system_m

    steps = reduction_steps(system_m(), word)
    assert len(steps) <= len(word)
    if steps:
        assert len(steps[-1].result) <= len(word)


@given(st.text(alphabet="cd", max_size=40))
def test_normal_form_idempotent(word):
    from cayleyforge import system_n

    nf = normal_form(system_n(), word)
    assert is_irreducible(system_n(), nf)
    assert normal_form(system_n(), nf) == nf
