"""Matching, reduction, and rules that must shorten the word."""

import dataclasses
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cayleyforge import (
    Match,
    RewriteRule,
    RewritingSystem,
    RuleSchema,
    build_ball,
    certify,
    first_match,
    is_irreducible,
    normal_form,
    parse_presentation,
    reduction_steps,
    system_m,
    words_equal,
)
from cayleyforge.rewriting import IncompleteSystemError

import oracles
from strategies import systems


def test_first_match_concrete_rule(sys_n):
    assert first_match(sys_n, "cddc") == Match(rule_index=0, position=0, matched_length=4)


def test_first_match_none(sys_m):
    assert first_match(sys_m, "aba") is None


def test_first_match_schema_reports_full_run(sys_m):
    match = first_match(sys_m, "abbba")
    assert match == Match(rule_index=0, position=0, matched_length=5, exponent=3)


@pytest.mark.parametrize("n", range(2, 13))
def test_schema_match_exponent(sys_m, n):
    word = "a" + "b" * n + "a"
    match = first_match(sys_m, word)
    assert match.exponent == n
    assert match.matched_length == len(word)


def test_matching_rejects_foreign_symbol(sys_n):
    """Also late in a word whose first factor already matches; of two
    foreign symbols, the first is named."""
    for check in (first_match, normal_form):
        for word in ("cadc", "cddcdcdcda", "cdacbd"):
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
    schema, ``cddc`` through one of N's concrete left sides."""
    system, alphabet = (sys_n, "{c, d}") if "c" in word else (sys_m, "{a, b}")
    with pytest.raises(ValueError) as excinfo:
        is_irreducible(system, word)
    assert str(excinfo.value) == f"symbol 'x' is not in the alphabet {alphabet}"


def test_reduction_steps_record_rule_and_position(sys_m):
    steps = reduction_steps(sys_m, "abbabba")
    assert [s.result for s in steps] == ["ababba", "ababa"]
    assert [(s.match.position, s.match.exponent) for s in steps] == [(0, 2), (2, 2)]


def test_rule_that_does_not_shorten_is_refused():
    """No rule or schema that keeps or grows a word can be built, so no
    system, certified or not, holds one."""
    with pytest.raises(ValueError) as excinfo:
        RewritingSystem(("a", "b"), (RewriteRule("ba", "ab"),), certified_bound=12)
    assert str(excinfo.value) == "rule ba -> ab is not length-reducing"
    with pytest.raises(ValueError) as excinfo:
        RuleSchema("a", "b", 1, "", "ab")  # shortest instance ab, as long as ab
    assert str(excinfo.value) == "rule ab{n} -> ab (n >= 1) is not length-reducing"
    RuleSchema("a", "b", 2, "", "ab")  # shortest instance abb


def test_check_length_reducing_failure_lists_rule():
    """The refusal names the rule that grows the word."""
    with pytest.raises(ValueError) as excinfo:
        RewritingSystem(("a", "b"), (RewriteRule("a", "ab"),))
    assert str(excinfo.value) == "rule a -> ab is not length-reducing"


def test_reduction_refuses_non_shortening_rule():
    """A rule that keeps the length is refused as it is built, so
    reduction never meets one."""
    with pytest.raises(ValueError, match="not length-reducing"):
        RewriteRule("ab", "ba")


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
    match = first_match(sys_n, "dcddcd")
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


def test_schema_bound_costs_no_memory():
    """The automaton counts a schema's bound instead of laying out that
    many positions, so a bound of a million costs no more than a bound
    of 2."""
    text = "alphabet a b\nrule a b{{n}} -> a where n >= {}\n"
    tracemalloc.start()
    try:
        system = parse_presentation(text.format(10**6))
        assert is_irreducible(system, "ab")
        assert is_irreducible(system.mirror, "bbbbba")
        # built directly so as not to spell out the instance a b^1000000
        # inside the window
        certified = dataclasses.replace(system, certified_bound=10**6)
        balls = [build_ball(certified, side, 3, "with_frontier") for side in ("right", "left")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    # the one instance a b^1000000 overlaps nothing, so certifying for
    # real, outside the window above, returns the same system
    assert certify(system, 10**6) == certified
    # no product in these balls is long enough to hold a left side
    small = certify(parse_presentation(text.format(5)), 5)
    for ball, side in zip(balls, ("right", "left")):
        assert ball == build_ball(small, side, 3, "with_frontier")


def words_over(alphabet):
    return st.text(alphabet="".join(alphabet), max_size=40)


def run_words(alphabet):
    """Words made of runs of one symbol, up to 12 long each, so that
    pumped runs are often long."""
    runs = st.tuples(st.sampled_from(alphabet), st.integers(1, 12))
    return st.lists(runs, max_size=8).map(lambda rs: "".join(c * n for c, n in rs))


@st.composite
def run_before_rewrite(draw, system):
    """A schema's prefix and a pumped run of at least its minimum, then a
    concrete left side and what follows its right side in the schema's
    suffix: the rewrite can complete a schema match that starts long
    before it, which only the one-position test in ``_reduce`` finds.
    Without a rule and a schema, a plain word."""
    if not (system.rules and system.schemas):
        return draw(words_over(system.alphabet))
    schema = draw(st.sampled_from(system.schemas))
    rule = draw(st.sampled_from(system.rules))
    run = schema.pumped * draw(st.integers(schema.min_exponent, 12))
    tail = schema.suffix[len(rule.rhs.lstrip(schema.pumped)) :]
    return schema.prefix + run + rule.lhs + tail


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_reduction_equals_position_first_oracle(system, data):
    """Each scan resumes where the last rewrite can first matter; the
    steps must still be the first matches of a scan from the start."""
    words = st.one_of(
        words_over(system.alphabet), run_words(system.alphabet), run_before_rewrite(system)
    )
    for word in data.draw(st.lists(words, min_size=1, max_size=10)):
        expected = oracles.reduce_by_position(system, word)
        steps = reduction_steps(system, word)
        assert [
            (s.match.rule_index, s.match.position, s.match.exponent, s.result)
            for s in steps
        ] == expected
        assert normal_form(system, word) == (expected[-1][3] if expected else word)


@pytest.mark.parametrize(
    "rules, schema, word, expected",
    [
        # a concrete left side of the longest length, starting L - 1
        # before the rewrite
        ([("cc", "b"), ("bb", "a")], None, "bcc", [(0, 1, None, "bb"), (1, 0, None, "a")]),
        # a schema whose pumped run ends at the rewrite
        ([("c", "")], ("", "a", 2, "", ""), "aca", [(0, 1, None, "aa"), (1, 0, 2, "")]),
        # a schema whose suffix starts before the rewrite and ends in it
        ([("aa", "c")], ("", "a", 1, "bc", ""), "abaa", [(0, 2, None, "abc"), (1, 0, 1, "")]),
        # a schema match before the resumed scan, found by testing the one
        # position where its pumped run starts
        ([("ac", "c")], ("", "b", 1, "c", ""), "bbac", [(0, 2, None, "bbc"), (1, 0, 2, "")]),
    ],
    ids=["longest-rule", "pumped-run", "suffix", "run-start"],
)
def test_rewrite_makes_a_match_that_starts_before_it(rules, schema, word, expected):
    """Each term of the resumed scan's start is needed: here the second
    match starts before the first rewrite's position."""
    system = RewritingSystem(
        ("a", "b", "c"),
        tuple(RewriteRule(lhs, rhs) for lhs, rhs in rules),
        (RuleSchema(*schema),) if schema else (),
    )
    assert oracles.reduce_by_position(system, word) == expected
    steps = reduction_steps(system, word)
    assert [
        (s.match.rule_index, s.match.position, s.match.exponent, s.result) for s in steps
    ] == expected


def test_long_run_before_many_rewrites_is_not_rescanned():
    """4 000 rewrites right after a 4 000-symbol pumped run: each tests
    the schema once at the run's start instead of rescanning the run
    (the scan from the run took seconds here)."""
    system = parse_presentation(
        "alphabet b c d\nrule c c -> c\nrule b{n} d -> where n >= 1\n"
    )
    k = 4000
    start = time.perf_counter()
    assert normal_form(system, "b" * k + "c" * k) == "b" * k + "c"
    assert time.perf_counter() - start < 2.0


def test_normal_form_keeps_one_word():
    """A long reduction keeps only the current word: 2 000 steps on a
    6 001-symbol word."""
    word = "a" + "bba" * 2000
    system = system_m()
    normal_form(system, "abba")  # the system's reduction data, built once
    tracemalloc.start()
    try:
        result = normal_form(system, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == "a" + "ba" * 2000
    assert peak < 1_000_000
