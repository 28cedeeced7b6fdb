"""Length-reducing string rewriting over small alphabets.

Words are plain Python strings; each character is one generator symbol.
An alphabet is an ordered tuple of distinct single characters, and a
symbol's id is its position in that tuple.  A rule rewrites a factor
(contiguous substring) of a word; a rule schema stands for the whole
family ``prefix . pumped^n . suffix -> rhs`` for ``n >= min_exponent``
with a single pumped symbol.

Every rule shortens the word: :class:`RewriteRule` and
:class:`RuleSchema` refuse to be built otherwise, so every system is
length-reducing and reduction of ``w`` takes at most ``|w|`` steps.

A schema match always consumes the full run of the pumped symbol at its
position, so each match corresponds to exactly one factor occurrence of
one instance of the family.  Reduction applies the first match in
(position, rule index) order; on a confluent system the final result is
independent of that choice, and the fixed order keeps outputs stable,
also on systems that are not confluent.

Reduction is exact first match, amortised linear for bounded left
sides: after a rewrite the next scan resumes where the rewrite can first
matter, not at position 0.  The window lemma: let ``s`` be the position
of the first match, which is rewritten.  No position before ``s`` held
a match, and the word before ``s`` does not change, so any new match
must reach ``s``.  A concrete left side of length at most ``L``, the
longest one, then starts at or after ``s - (L - 1)``.  A schema match
has only its prefix, one pumped run and part of its suffix before
``s``.  If it starts before ``s - len(suffix) - len(prefix)``, its run
covers position ``s - len(suffix) - 1`` and is maximal, so it is the
run of the pumped symbol that ends at ``s - len(suffix)`` (at least 0),
found with ``rstrip``, and the match starts at ``r - len(prefix)``,
where ``r`` is that run's start.  So each schema is tested alone at
that one position, the earliest such match in (position, rule index)
order is the first match, and only when there is none does the scan
resume, at the least of ``s - (L - 1)`` and each schema's
``s - len(suffix) - len(prefix)`` (and at least 0).  Either way it
finds exactly the match that a scan from 0 would.  With left sides of
bounded length, all scans of one reduction together read O(``|w|``)
positions, and a long run before many rewrites is not read again; each
rewrite also copies the word once, and ``rstrip`` reads back to the
run's start, both at C speed.  :func:`normal_form` keeps only the
current word, and the lengths the lemma needs are computed once per
system, on its first reduction.

A word is irreducible when that scan finds no first match.  Normal-form
enumeration and balls read a :class:`LeftSideAutomaton`, whose states
are sets of dotted items (a left side and how much of it has been read,
a schema's pumped run counted only up to its minimum), built on demand
by the subset construction.  A system builds it, and
its :attr:`RewritingSystem.mirror`, the first time either is asked for,
and keeps them; nothing is built at import or when a system is
constructed or certified.  The transition table grows as words are
read, but each new state is published whole, by a single dictionary
insertion, before any transition points to it, so a reader never sees a
partly built state.  Results never depend on what has been cached.

All values are otherwise immutable; every function is a pure function
of its arguments and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Word",
    "RewriteRule",
    "RuleSchema",
    "RewritingSystem",
    "LeftSideAutomaton",
    "AutomatonState",
    "Match",
    "ReductionStep",
    "IncompleteSystemError",
    "first_match",
    "describe_match",
    "reduction_steps",
    "normal_form",
    "is_irreducible",
]

# A word over some alphabet; "" is the empty word.
Word = str

EMPTY_DISPLAY = "ε"  # how the empty word is rendered in messages


def show_word(w: Word) -> str:
    return w if w else EMPTY_DISPLAY


class IncompleteSystemError(RuntimeError):
    """An operation that needs a confluence certificate was called on a
    system that does not carry one."""


@dataclass(frozen=True)
class RewriteRule:
    lhs: str
    rhs: str

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("rule left-hand side must be nonempty")
        if len(self.rhs) >= len(self.lhs):
            raise ValueError(f"rule {self} is not length-reducing")

    def __str__(self) -> str:
        return f"{self.lhs} -> {show_word(self.rhs)}"


@dataclass(frozen=True)
class RuleSchema:
    """One-parameter rule family ``prefix . pumped^n . suffix -> rhs``.

    The exponent of a match is the length of the full pumped run, so the
    run must be delimited unambiguously: the prefix may not end with the
    pumped symbol and the suffix may not start with it.
    """

    prefix: str
    pumped: str
    min_exponent: int
    suffix: str
    rhs: str

    def __post_init__(self) -> None:
        if len(self.pumped) != 1:
            raise ValueError("pumped symbol must be a single character")
        if self.min_exponent < 1:
            raise ValueError("min_exponent must be at least 1")
        if self.prefix.endswith(self.pumped):
            raise ValueError("schema prefix may not end with the pumped symbol")
        if self.suffix.startswith(self.pumped):
            raise ValueError("schema suffix may not start with the pumped symbol")
        if len(self.prefix) + self.min_exponent + len(self.suffix) <= len(self.rhs):
            raise ValueError(f"rule {self} is not length-reducing")

    def instance(self, exponent: int) -> RewriteRule:
        """The concrete rule at a fixed exponent; a ValueError if its left
        side is too long to build."""
        if exponent < self.min_exponent:
            raise ValueError(
                f"exponent {exponent} below schema minimum {self.min_exponent}"
            )
        try:
            lhs = self.prefix + self.pumped * exponent + self.suffix
        except (OverflowError, MemoryError):
            raise ValueError(
                f"schema {self} is too long to instantiate at exponent {exponent}"
            ) from None
        return RewriteRule(lhs, self.rhs)

    def __str__(self) -> str:
        head = f"{self.prefix}{self.pumped}{{n}}{self.suffix}"
        return f"{head} -> {show_word(self.rhs)} (n >= {self.min_exponent})"


@dataclass(frozen=True)
class RewritingSystem:
    """An ordered alphabet plus finitely many rules and rule schemas.

    ``certified_bound`` is set by :func:`cayleyforge.confluence.certify`
    once local confluence has been checked with schemas instantiated up
    to that exponent; operations that rely on unique normal forms demand
    it.
    """

    alphabet: tuple[str, ...]
    rules: tuple[RewriteRule, ...] = ()
    schemas: tuple[RuleSchema, ...] = ()
    certified_bound: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "schemas", tuple(self.schemas))
        seen: set[str] = set()
        for ch in self.alphabet:
            if len(ch) != 1:
                raise ValueError(f"alphabet symbols are single characters, got {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate alphabet symbol {ch!r}")
            seen.add(ch)
        for i, rule in enumerate(self.rules):
            self._check_symbols(rule.lhs, f"rule {i} lhs")
            self._check_symbols(rule.rhs, f"rule {i} rhs")
        for j, schema in enumerate(self.schemas):
            self._check_symbols(schema.prefix, f"schema {j} prefix")
            self._check_symbols(schema.pumped, f"schema {j} pumped symbol")
            self._check_symbols(schema.suffix, f"schema {j} suffix")
            self._check_symbols(schema.rhs, f"schema {j} rhs")

    def _check_symbols(self, word: str, where: str) -> None:
        try:
            self.check_word(word)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    @property
    def is_certified(self) -> bool:
        return self.certified_bound is not None

    def check_word(self, w: Word) -> None:
        """Raise ValueError naming the first symbol of ``w`` outside the alphabet."""
        if not w.strip("".join(self.alphabet)):
            return
        for ch in w:
            if ch not in self.alphabet:
                raise ValueError(
                    f"symbol {ch!r} is not in the alphabet "
                    f"{{{', '.join(self.alphabet)}}}"
                )

    def rule_count(self) -> int:
        """Number of rules plus schemas (combined index space)."""
        return len(self.rules) + len(self.schemas)

    def label(self, index: int) -> str:
        """Printable form of the rule or schema at a combined index
        (rules first, then schemas)."""
        if index < len(self.rules):
            return str(self.rules[index])
        return str(self.schemas[index - len(self.rules)])

    @cached_property
    def automaton(self) -> LeftSideAutomaton:
        """The matcher over this system's left sides, built on first use."""
        return LeftSideAutomaton(self)

    @cached_property
    def _reduction_data(
        self,
    ) -> tuple[tuple[str, ...], tuple[str, ...], int, tuple[tuple[int, str, int], ...]]:
        """What reduction reads on every step, computed once: the
        concrete left sides, the right side at each combined index, the
        longest concrete left side (1 if there is none) and each
        schema's ``(len(suffix), pumped, len(prefix))``."""
        lefts = tuple([r.lhs for r in self.rules])
        return (
            lefts,
            tuple([r.rhs for r in self.rules] + [s.rhs for s in self.schemas]),
            max(map(len, lefts), default=1),
            tuple([(len(s.suffix), s.pumped, len(s.prefix)) for s in self.schemas]),
        )

    @cached_property
    def mirror(self) -> RewritingSystem:
        """The system of reversed rules: ``u -> v`` here exactly when
        ``reversed(u) -> reversed(v)`` there.  A schema's prefix and
        suffix swap and are reversed.  The certificate carries over,
        since reversal maps critical pairs to critical pairs."""
        return RewritingSystem(
            self.alphabet,
            tuple(RewriteRule(r.lhs[::-1], r.rhs[::-1]) for r in self.rules),
            tuple(
                RuleSchema(s.suffix[::-1], s.pumped, s.min_exponent,
                           s.prefix[::-1], s.rhs[::-1])
                for s in self.schemas
            ),
            self.certified_bound,
        )


class AutomatonState:
    """A state of a :class:`LeftSideAutomaton`.

    ``items`` is the set of dotted items ``(index, k)`` that hold after
    the word read so far.  ``rule`` is the lowest combined index of a
    left side that ends where that word ends, or None if no left side
    does.  ``next[j]`` is the state after one more symbol with id ``j``,
    or None until :meth:`LeftSideAutomaton.step` has computed it.
    """

    __slots__ = ("items", "rule", "next")

    def __init__(
        self, items: frozenset[tuple[int, int]], rule: int | None, width: int
    ) -> None:
        self.items = items
        self.rule = rule
        self.next: list[AutomatonState | None] = [None] * width


class LeftSideAutomaton:
    """Matcher over the left sides of a system, determinised on demand
    by the subset construction over dotted items (Aho & Corasick 1975).

    Each left side, at a combined index (rules first, then schemas), is
    held once as ``(head, loop, count, tail)``: a concrete left side is
    ``(lhs, "", 0, "")`` and a schema ``p c^n s`` with ``n >= m`` is
    ``(p, c, m, s)``.  An item ``(index, k)`` says that the last symbols
    read are the first ``k`` symbols of that left side.  For a schema,
    ``k`` counts the prefix, then at most ``m`` pumped copies, stays
    there while the pumped symbol repeats, and then counts the suffix,
    so a bound such as ``n >= 1000000`` costs no more than ``n >= 2``.
    A state is the set of items that hold; every left side restarts at
    ``k = 0`` on each symbol, and its ``rule`` is the lowest index whose
    item is complete.  A word is irreducible exactly when no prefix of
    it reaches a state that names a rule.  A state and each transition
    are computed the first time they are needed.

    Symbols are given by their id, the position in the alphabet.
    """

    def __init__(self, system: RewritingSystem) -> None:
        self.symbol_ids = {g: j for j, g in enumerate(system.alphabet)}
        self.rhs_ids = tuple(
            tuple(self.symbol_ids[ch] for ch in rhs)
            for rhs in [r.rhs for r in system.rules] + [s.rhs for s in system.schemas]
        )
        self._alphabet = system.alphabet
        self._pieces = tuple([(r.lhs, "", 0, "") for r in system.rules] + [
            (s.prefix, s.pumped, s.min_exponent, s.suffix) for s in system.schemas
        ])
        self._ends = tuple(len(h) + m + len(t) for h, _, m, t in self._pieces)
        self._initial = frozenset((i, 0) for i in range(len(self._pieces)))
        self._states: dict[frozenset[tuple[int, int]], AutomatonState] = {}
        self.start = self._state(self._initial)

    def _state(self, items: frozenset[tuple[int, int]]) -> AutomatonState:
        state = self._states.get(items)
        if state is None:
            complete = [i for i, k in items if k == self._ends[i]]
            state = AutomatonState(
                items, min(complete, default=None), len(self._alphabet)
            )
            state = self._states.setdefault(items, state)
        return state

    def step(self, state: AutomatonState, symbol: int) -> AutomatonState:
        """The state after reading symbol id ``symbol`` in ``state``."""
        target = state.next[symbol]
        if target is None:
            ch = self._alphabet[symbol]
            items = set(self._initial)
            for i, k in state.items:
                head, loop, count, tail = self._pieces[i]
                t = k - len(head) - count  # tail symbols read, < 0 inside the run
                expected = head[k] if k < len(head) else loop if t < 0 else tail[t : t + 1]
                if t == 0 and ch == loop:
                    items.add((i, k))  # the pumped run goes on
                elif ch == expected:
                    items.add((i, k + 1))
            target = self._state(frozenset(items))
            state.next[symbol] = target
        return target

    def match_length(self, rule: int, word: Word) -> int:
        """Length of the left side of ``rule`` that ends ``word``, where
        reading ``word`` ends in a state that names ``rule``.

        A schema's length counts the full pumped run before its suffix,
        as a match found by scanning would.
        """
        head, loop, _, tail = self._pieces[rule]
        if not loop:
            return len(head)
        run_end = len(word) - len(tail)
        return len(word) - len(word[:run_end].rstrip(loop)) + len(head)


@dataclass(frozen=True)
class Match:
    """One factor occurrence of a rule or schema instance.

    ``rule_index`` counts rules first, then schemas.  ``exponent`` is the
    pumped-run length and is set only for schema matches.
    """

    rule_index: int
    position: int
    matched_length: int
    exponent: int | None = None


def _first_match(
    system: RewritingSystem, w: Word, start: int
) -> tuple[int, int, int, int | None] | None:
    """``(rule index, position, matched length, exponent)`` of the first
    match in ``w`` in (position, rule index) order, or None; the
    exponent is None for a concrete rule.

    No match may start before ``start``, so the scan begins there.  A
    schema with an empty prefix is tried only where its pumped run
    begins: a match inside a run would imply one a position earlier,
    with the same run end and suffix.
    """
    lefts = system._reduction_data[0]
    n_rules = len(lefts)
    n = len(w)
    for pos in range(start, n):
        for i, lhs in enumerate(lefts):
            if w.startswith(lhs, pos):
                return i, pos, len(lhs), None
        for j, schema in enumerate(system.schemas):
            prefix, pumped = schema.prefix, schema.pumped
            if prefix:
                if not w.startswith(prefix, pos):
                    continue
            elif pos and w[pos - 1] == pumped:
                continue
            run_start = run_end = pos + len(prefix)
            while run_end < n and w[run_end] == pumped:
                run_end += 1
            exponent = run_end - run_start
            if exponent >= schema.min_exponent and w.startswith(schema.suffix, run_end):
                return n_rules + j, pos, run_end - pos + len(schema.suffix), exponent
    return None


def first_match(system: RewritingSystem, w: Word) -> Match | None:
    """The first match in ``w`` in (position, rule index) order, or None."""
    system.check_word(w)
    hit = _first_match(system, w, 0)
    return None if hit is None else Match(*hit)


def describe_match(system: RewritingSystem, match: Match) -> str:
    text = f"{system.label(match.rule_index)} at position {match.position}"
    if match.exponent is not None:
        text += f" (n={match.exponent})"
    return text


@dataclass(frozen=True)
class ReductionStep:
    match: Match
    result: Word


def _reduce(system: RewritingSystem, w: Word, steps: list[ReductionStep] | None) -> Word:
    """Rewrite ``w`` by first matches to a fixed point, appending each
    step to ``steps`` unless it is None; see the module docstring for
    where each scan resumes."""
    system.check_word(w)
    _, rights, longest, schemas = system._reduction_data
    hit = _first_match(system, w, 0)
    while hit is not None:
        i, s, length, exponent = hit
        w = w[:s] + rights[i] + w[s + length :]
        if steps is not None:
            steps.append(ReductionStep(Match(i, s, length, exponent), w))
        start = s - longest + 1
        for suffix_len, _, prefix_len in schemas:
            start = min(start, s - suffix_len - prefix_len)
        start = max(0, start)
        hit = None
        for j, (suffix_len, pumped, prefix_len) in enumerate(schemas):
            run_end = max(0, s - suffix_len)
            run_start = len(w[:run_end].rstrip(pumped))
            pos = run_start - prefix_len
            if pos < 0 or pos >= start or (hit is not None and pos >= hit[1]):
                continue
            schema = system.schemas[j]
            end = run_end  # w[run_start:run_end] is a run of the pumped symbol
            while end < len(w) and w[end] == pumped:
                end += 1
            if (
                w.startswith(schema.prefix, pos)
                and end - run_start >= schema.min_exponent
                and w.startswith(schema.suffix, end)
            ):
                hit = len(system.rules) + j, pos, end - pos + suffix_len, end - run_start
        if hit is None:
            hit = _first_match(system, w, start)
    return w


def reduction_steps(system: RewritingSystem, w: Word) -> list[ReductionStep]:
    """Rewrite ``w`` to a fixed point, recording each applied match.

    Every step shortens the word, since every rule does.  ``w`` is
    checked against the alphabet once; every later word holds only its
    symbols and right sides, which the system has checked.
    """
    steps: list[ReductionStep] = []
    _reduce(system, w, steps)
    return steps


def normal_form(system: RewritingSystem, w: Word) -> Word:
    """The irreducible word reached from ``w`` by first-match reduction;
    only the current word is kept."""
    return _reduce(system, w, None)


def is_irreducible(system: RewritingSystem, w: Word) -> bool:
    """Whether no left side occurs in ``w``: :func:`first_match` finds
    none, and raises on a symbol outside the alphabet wherever it is."""
    return first_match(system, w) is None
