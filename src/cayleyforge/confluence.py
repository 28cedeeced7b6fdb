"""Critical pairs and local confluence for length-reducing systems.

Two rules whose left sides share letters inside one word give a critical
pair: the word can be rewritten in two ways, and the system is locally
confluent exactly when every such pair reduces to a common word.  Every
system terminates, since every rule shortens the word (see
:mod:`cayleyforge.rewriting`), so that settles confluence outright, and
each word then has a unique normal form.

Rule schemas are handled by instantiating their exponent up to a caller
supplied bound; the resulting certificate is explicitly bounded and the
bound is recorded on the certified system.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

from .rewriting import (
    IncompleteSystemError,
    RewriteRule,
    RewritingSystem,
    Word,
    normal_form,
)

DEFAULT_SCHEMA_BOUND = 12


class NotConfluentError(ValueError):
    """Raised by :func:`certify` when a critical pair does not join."""

    def __init__(self, report: ConfluenceReport):
        self.report = report
        first = report.failures[0]
        super().__init__(
            f"system is not locally confluent: source {first.pair.source!r} "
            f"reduces to both {first.left_normal!r} and {first.right_normal!r}"
        )


@dataclass(frozen=True)
class CriticalPair:
    """A word with two one-step descendants that must rejoin.

    ``overlap``: the two left sides share a nonempty proper suffix/prefix.
    ``containment``: one left side occurs inside the other.
    """

    source: Word
    left_result: Word
    right_result: Word
    kind: str  # "overlap" | "containment"


def instantiated_rules(system: RewritingSystem, schema_bound: int) -> list[RewriteRule]:
    """Concrete rules followed by every schema instance up to the bound."""
    for schema in system.schemas:
        if schema_bound < schema.min_exponent:
            raise ValueError(
                f"schema bound {schema_bound} is below the minimal exponent "
                f"{schema.min_exponent} of schema {schema}"
            )
    rules = list(system.rules)
    for schema in system.schemas:
        rules.extend(
            schema.instance(n) for n in range(schema.min_exponent, schema_bound + 1)
        )
    return rules


def critical_pairs(
    system: RewritingSystem, schema_bound: int = DEFAULT_SCHEMA_BOUND
) -> Iterator[CriticalPair]:
    """Yield every overlap and containment pair among all rule
    instances, one at a time.

    For rules ``u -> v`` and ``z -> t``: an overlap takes a nonempty
    proper suffix of ``u`` that is a proper prefix of ``z``, giving the
    source ``p q r`` with descendants ``v r`` and ``p t``; a containment
    finds ``z`` inside ``u``, giving the source ``u`` with descendants
    ``v`` and ``p t q``.  The trivial containment of a rule in itself is
    skipped.  Each overlap of an ordered rule pair at a given shared part
    appears exactly once.  A schema bound below a schema's minimal
    exponent raises :class:`ValueError` when the first pair is asked for.
    """
    rules = instantiated_rules(system, schema_bound)
    for i, left_rule in enumerate(rules):
        u, v = left_rule.lhs, left_rule.rhs
        for j, right_rule in enumerate(rules):
            z, t = right_rule.lhs, right_rule.rhs
            # the shared part u[k:] starts with z[0]; descending k is
            # ascending overlap length
            lo = max(1, len(u) - len(z) + 1)
            k = u.rfind(z[0], lo)
            while k >= 0:
                if z.startswith(u[k:]):
                    p, r = u[:k], z[len(u) - k :]
                    yield CriticalPair(p + z, v + r, p + t, "overlap")
                k = u.rfind(z[0], lo, k)
            start = 0
            while True:
                k = u.find(z, start)
                if k < 0:
                    break
                if not (i == j and k == 0 and len(z) == len(u)):
                    yield CriticalPair(
                        u, v, u[:k] + t + u[k + len(z) :], "containment"
                    )
                start = k + 1


@dataclass(frozen=True)
class PairFailure:
    pair: CriticalPair
    left_normal: Word
    right_normal: Word


@dataclass(frozen=True)
class ConfluenceReport:
    """The pairs checked, in :func:`critical_pairs` order, and those among
    them whose descendants reduce to different normal forms.  A report
    from :func:`check_local_confluence` covers every pair; the one that
    :func:`certify` attaches to :class:`NotConfluentError` stops at the
    first failure, so its counts end there and it holds one failure."""

    passed: bool
    pair_count: int
    overlap_count: int
    containment_count: int
    schema_bound: int
    failures: tuple[PairFailure, ...]


def _check(
    system: RewritingSystem, schema_bound: int, stop_at_failure: bool
) -> ConfluenceReport:
    """Reduce both descendants of each critical pair, in the order
    :func:`critical_pairs` yields them, counting pairs and overlaps on
    the way; no list of pairs is kept.  With ``stop_at_failure`` the
    check ends at the first pair whose normal forms differ."""
    failures = []
    pairs = overlaps = 0
    for pair in critical_pairs(system, schema_bound):
        pairs += 1
        if pair.kind == "overlap":
            overlaps += 1
        left = normal_form(system, pair.left_result)
        right = normal_form(system, pair.right_result)
        if left != right:
            failures.append(PairFailure(pair, left, right))
            if stop_at_failure:
                break
    return ConfluenceReport(
        passed=not failures,
        pair_count=pairs,
        overlap_count=overlaps,
        containment_count=pairs - overlaps,
        schema_bound=schema_bound,
        failures=tuple(failures),
    )


def check_local_confluence(
    system: RewritingSystem, schema_bound: int = DEFAULT_SCHEMA_BOUND
) -> ConfluenceReport:
    """Check every critical pair and report each one whose normal forms
    differ."""
    return _check(system, schema_bound, stop_at_failure=False)


def certify(
    system: RewritingSystem, schema_bound: int = DEFAULT_SCHEMA_BOUND
) -> RewritingSystem:
    """Return a copy of ``system`` carrying a confluence certificate.

    Raises :class:`NotConfluentError` at the first critical pair that
    does not join, since one such pair already shows that the system is
    not locally confluent; the error's report covers the pairs checked
    up to it.  For systems with schemas the certificate is bounded:
    overlaps are checked for exponents up to ``schema_bound`` only.
    """
    report = _check(system, schema_bound, stop_at_failure=True)
    if not report.passed:
        raise NotConfluentError(report)
    return dataclasses.replace(system, certified_bound=schema_bound)


def words_equal(system: RewritingSystem, w1: Word, w2: Word) -> bool:
    """Whether two words represent the same monoid element.

    Demands a certified system: without confluence, equal normal forms
    would not decide equality.
    """
    if not system.is_certified:
        raise IncompleteSystemError(
            "words_equal needs a confluence certificate; call certify() first"
        )
    return normal_form(system, w1) == normal_form(system, w2)
