"""The left-side automaton against the first-match scanner, and the
balls and enumerations built from it against naive oracles."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from cayleyforge import (
    NotConfluentError,
    RewritingSystem,
    build_ball,
    certify,
    enumerate_normal_forms,
    first_match,
    parse_presentation,
    system_m,
    system_n,
)
from cayleyforge import rewriting

import oracles
from strategies import systems


RADIUS_BOUND = 6
CERTIFY_BOUND = RADIUS_BOUND + 2  # every schema instance a ball product can hold


@st.composite
def certified_systems(draw):
    """A random system that certifies, or else the first of its
    single-rule subsystems that does."""
    system = draw(systems(max_rules=2, max_schemas=1))
    singles = [RewritingSystem(system.alphabet, (r,)) for r in system.rules]
    singles += [RewritingSystem(system.alphabet, (), (s,)) for s in system.schemas]
    for candidate in [system] + singles:
        try:
            return certify(candidate, CERTIFY_BOUND)
        except NotConfluentError:
            pass
    return draw(st.nothing())


def words_over(alphabet, max_size):
    return st.text(alphabet="".join(alphabet), max_size=max_size)


def _no_prefix_names_a_rule(system, w):
    automaton = system.automaton
    state = automaton.start
    for ch in w:
        state = automaton.step(state, automaton.symbol_ids[ch])
        if state.rule is not None:
            return False
    return True


@given(systems(), st.data())
def test_irreducibility_agrees_with_first_match(system, data):
    """A word is irreducible exactly when no prefix's state names a
    rule, in the system's automaton and, on the reversed word, in its
    mirror's."""
    for w in data.draw(st.lists(words_over(system.alphabet, 12), max_size=8)):
        expected = first_match(system, w) is None
        assert _no_prefix_names_a_rule(system, w) == expected
        assert _no_prefix_names_a_rule(system.mirror, w[::-1]) == expected


@given(systems(), st.data())
def test_named_rule_is_the_lowest_ending_there(system, data):
    """After each prefix of each word, the state names the lowest rule or
    schema whose left side ends there, or None if none does, and the
    named left side's length counts a schema's full pumped run; in the
    system's automaton and, on the reversed word, in its mirror's."""
    for w in data.draw(st.lists(words_over(system.alphabet, 12), max_size=8)):
        for read, word in ((system, w), (system.mirror, w[::-1])):
            automaton = read.automaton
            state = automaton.start
            for end in range(1, len(word) + 1):
                state = automaton.step(state, automaton.symbol_ids[word[end - 1]])
                prefix, named = word[:end], state.rule
                if named is not None:
                    named = named, automaton.match_length(named, prefix)
                assert named == oracles.lowest_left_side_ending(read, prefix)


@pytest.mark.parametrize(
    "factory, mirrored, live, total",
    [(system_m, False, 4, 5), (system_n, False, 7, 11),
     (system_m, True, 4, 5), (system_n, True, 16, 20)],
)
def test_reachable_state_counts(factory, mirrored, live, total):
    """The states reachable from the start, and the live ones among them
    (those that name no rule), as the automaton proofs for M and N count
    them."""
    system = factory().mirror if mirrored else factory()
    automaton = system.automaton
    seen, todo = {automaton.start}, [automaton.start]
    while todo:
        state = todo.pop()
        for symbol in range(len(system.alphabet)):
            nxt = automaton.step(state, symbol)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    assert sum(s.rule is None for s in seen) == live
    assert len(seen) == total


@settings(deadline=None)
@given(certified_systems(), st.integers(0, RADIUS_BOUND))
def test_enumeration_matches_filter_oracle(system, max_len):
    expected = oracles.irreducible_words_by_filter(system, CERTIFY_BOUND, max_len)
    assert enumerate_normal_forms(system, max_len) == expected


@settings(deadline=None)
@given(
    certified_systems(),
    st.sampled_from(["right", "left"]),
    st.sampled_from(["closed", "with_frontier"]),
    st.integers(0, RADIUS_BOUND),
)
def test_ball_matches_reduction_oracle(system, side, policy, radius):
    ball = build_ball(system, side, radius, policy)
    expected = oracles.ball_by_reduction(system, side, radius, policy)
    assert (ball.vertices, ball.edges, ball.frontier) == expected


def _refuse(*args, **kwargs):
    raise AssertionError("build_ball reduced a word")


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("factory", [system_m, system_n])
def test_ball_reduces_no_word(monkeypatch, factory, side):
    expected = build_ball(factory(), side, 9, "with_frontier")
    fresh = dataclasses.replace(factory())  # no automaton built yet
    monkeypatch.setattr(rewriting, "_first_match", _refuse)
    monkeypatch.setattr(rewriting, "normal_form", _refuse)
    assert build_ball(fresh, side, 9, "with_frontier") == expected


def test_automaton_is_built_on_first_use():
    text = "alphabet a b\nrule a b{n} a -> a b a where n >= 2\n"
    for fresh in (system_m.__wrapped__(), system_n.__wrapped__(),
                  certify(parse_presentation(text), 12)):
        assert "automaton" not in vars(fresh) and "mirror" not in vars(fresh)
        enumerate_normal_forms(fresh, 3)
        assert "automaton" in vars(fresh) and "mirror" not in vars(fresh)
        build_ball(fresh, "left", 3)
        assert "automaton" in vars(fresh.mirror)
