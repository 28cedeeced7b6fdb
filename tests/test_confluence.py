"""Critical pairs and local-confluence checking."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cayleyforge import (
    NotConfluentError,
    RewriteRule,
    RewritingSystem,
    certify,
    check_local_confluence,
    critical_pairs,
    instantiated_rules,
    normal_form,
)

import oracles
from strategies import systems


def _as_multiset(pairs):
    return Counter(
        (p.source, tuple(sorted((p.left_result, p.right_result)))) for p in pairs
    )


def test_n_overlap_example(sys_n):
    pairs = list(critical_pairs(sys_n))
    wanted = [p for p in pairs if p.source == "cddcddc"]
    assert len(wanted) == 1
    pair = wanted[0]
    assert pair.kind == "overlap"
    assert {pair.left_result, pair.right_result} == {"cdcddc", "cddcdc"}


def test_disjoint_single_rule_has_no_pairs():
    system = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"),))
    assert list(critical_pairs(system)) == []


def test_m_schema_overlap_joins(sys_m):
    pairs = list(critical_pairs(sys_m, schema_bound=3))
    wanted = [p for p in pairs if p.source == "abbabbba"]
    assert len(wanted) == 1
    pair = wanted[0]
    assert normal_form(sys_m, pair.left_result) == "ababa"
    assert normal_form(sys_m, pair.right_result) == "ababa"


def test_pairs_match_scan_oracle_n(sys_n):
    rules = oracles.concrete_rules(sys_n, 1)
    assert _as_multiset(critical_pairs(sys_n)) == oracles.critical_sources_by_scan(rules)


def test_pairs_match_scan_oracle_m_bounded(sys_m):
    rules = oracles.concrete_rules(sys_m, 3)
    assert _as_multiset(critical_pairs(sys_m, 3)) == oracles.critical_sources_by_scan(
        rules
    )


def test_schema_bound_below_minimum_rejected(sys_m):
    with pytest.raises(ValueError, match="below the minimal exponent"):
        list(critical_pairs(sys_m, schema_bound=1))


def test_instantiated_rules_counts(sys_m, sys_n):
    assert len(instantiated_rules(sys_n, 12)) == 4
    assert len(instantiated_rules(sys_m, 12)) == 11  # exponents 2..12


def test_local_confluence_n(sys_n):
    report = check_local_confluence(sys_n)
    assert report.passed
    assert report.pair_count == 12
    assert report.overlap_count == 12


def test_local_confluence_m_bounded(sys_m):
    report = check_local_confluence(sys_m, schema_bound=12)
    assert report.passed
    assert report.pair_count == 11 * 11


def test_local_confluence_counterexample():
    system = RewritingSystem(
        ("a", "b"), (RewriteRule("ab", "a"), RewriteRule("ba", "b"))
    )
    report = check_local_confluence(system)
    assert not report.passed
    by_source = {f.pair.source: f for f in report.failures}
    failure = by_source["aba"]
    assert {failure.pair.left_result, failure.pair.right_result} == {"aa", "ab"}
    assert {failure.left_normal, failure.right_normal} == {"aa", "a"}
    # confirmed by exploring every strategy from the source
    endpoints = oracles.reachable_normal_forms("aba", [("ab", "a"), ("ba", "b")])
    assert len(endpoints) > 1


def test_certify_sets_bound_and_rejects_nonconfluent():
    good = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"),))
    assert certify(good, 5).certified_bound == 5
    bad = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"), RewriteRule("ba", "b")))
    with pytest.raises(NotConfluentError):
        certify(bad)


def test_check_requires_length_reducing():
    """A system with a rule that keeps the length cannot be built, so
    the confluence check never sees one."""
    with pytest.raises(ValueError, match="not length-reducing"):
        RewritingSystem(("a", "b"), (RewriteRule("ab", "ba"),))


def _as_tuples(pairs):
    return [(p.source, p.left_result, p.right_result, p.kind) for p in pairs]


@settings(deadline=None)
@given(systems(), st.integers(3, 6))
def test_pairs_come_in_the_slicing_order(system, bound):
    """Trying only the overlaps where ``u`` holds ``z``'s first letter
    finds the same pairs, in the same order, as slicing every suffix."""
    expected = oracles.critical_pairs_by_slicing(oracles.concrete_rules(system, bound))
    assert _as_tuples(critical_pairs(system, bound)) == expected


@pytest.mark.parametrize("bound", [40, 100])
def test_m_pairs_come_in_the_slicing_order(sys_m, bound):
    expected = oracles.critical_pairs_by_slicing(oracles.concrete_rules(sys_m, bound))
    assert _as_tuples(critical_pairs(sys_m, bound)) == expected


@settings(deadline=None)
@given(systems())
def test_certify_stops_at_the_first_pair_that_does_not_join(system):
    """``certify`` accepts exactly what the full check passes; when it
    refuses, its report ends at the first failure of the full check,
    and its message is the one the full report gives."""
    full = check_local_confluence(system)
    try:
        certified = certify(system)
    except NotConfluentError as exc:
        assert not full.passed
        report = exc.report
        assert report.failures == full.failures[:1]
        assert str(exc) == str(NotConfluentError(full))
        pairs = list(critical_pairs(system))
        checked = pairs[: pairs.index(full.failures[0].pair) + 1]
        assert not report.passed
        assert report.pair_count == len(checked)
        assert report.overlap_count == sum(p.kind == "overlap" for p in checked)
        assert report.containment_count == len(checked) - report.overlap_count
    else:
        assert full.passed
        assert certified.certified_bound == full.schema_bound
