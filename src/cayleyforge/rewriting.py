"""Length-reducing string rewriting over small alphabets.

Words are plain Python strings; each character is one generator symbol.
An alphabet is an ordered tuple of distinct single characters, and a
symbol's id is its position in that tuple.  A rule rewrites a factor
(contiguous substring) of a word; a rule schema stands for the whole
family ``prefix . pumped^n . suffix -> rhs`` for ``n >= min_exponent``
with a single pumped symbol.

A schema match always consumes the full run of the pumped symbol at its
position, so each match corresponds to exactly one factor occurrence of
one instance of the family.  Reduction applies the first match in
(position, rule index) order; on a confluent system the final result is
independent of that choice, and the fixed order keeps outputs stable.

Irreducibility is decided by a :class:`LeftSideAutomaton`, a matcher
over all left sides that is determinised on demand.  A system builds
it, and its :attr:`RewritingSystem.mirror`, the first time either is
asked for, and keeps them; nothing is built at import or when a system
is constructed or certified.  The automaton's transition table grows
as words are read, but each new state is published whole, by a single
dictionary insertion, before any transition points to it, so a reader
never sees a partly built state.  Results never depend on what has been
cached.

All values are otherwise immutable; every function is a pure function
of its arguments and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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
    "find_matches",
    "first_match",
    "describe_match",
    "reduction_steps",
    "normal_form",
    "is_irreducible",
    "check_length_reducing",
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

    def instance(self, exponent: int) -> RewriteRule:
        """The concrete rule at a fixed exponent."""
        if exponent < self.min_exponent:
            raise ValueError(
                f"exponent {exponent} below schema minimum {self.min_exponent}"
            )
        return RewriteRule(
            self.prefix + self.pumped * exponent + self.suffix, self.rhs
        )

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
        """Raise ValueError if ``w`` uses a symbol outside the alphabet."""
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

    ``rule`` is the lowest combined index of a left side that ends where
    the word read so far ends, or None if no left side does.
    ``next[j]`` is the state after one more symbol with id ``j``, or
    None until :meth:`LeftSideAutomaton.step` has computed it.
    """

    __slots__ = ("positions", "rule", "next")

    def __init__(self, positions: frozenset[int], rule: int | None, width: int) -> None:
        self.positions = positions
        self.rule = rule
        self.next: list[AutomatonState | None] = [None] * width


class LeftSideAutomaton:
    """Aho–Corasick-style matcher over the left sides of a system,
    determinised on demand.

    The underlying NFA has one trie for all concrete left sides, so a
    shared prefix is one node, and one chain per schema
    ``p c^k c* s``, with a loop on ``c`` after ``k`` copies.  Reading a
    word from :attr:`start` restarts every chain at every position, so
    the state reached is the set of NFA positions that some suffix of
    the word leads to, and its ``rule`` names a left side ending there.
    A word is irreducible exactly when no prefix of it reaches a state
    that names a rule.  A state and each transition are computed the
    first time they are needed.

    Symbols are given by their id, the position in the alphabet.
    """

    def __init__(self, system: RewritingSystem) -> None:
        ids = {g: j for j, g in enumerate(system.alphabet)}
        moves: list[dict[int, int]] = []  # NFA position -> symbol id -> position
        accepts: list[int | None] = []  # lowest rule index ending at a position

        def new_position() -> int:
            moves.append({})
            accepts.append(None)
            return len(moves) - 1

        def extend(pos: int, word: str) -> int:
            for ch in word:
                nxt = moves[pos].get(ids[ch])
                if nxt is None:
                    nxt = moves[pos][ids[ch]] = new_position()
                pos = nxt
            return pos

        root = new_position()
        initial = [root]
        for i, rule in enumerate(system.rules):
            end = extend(root, rule.lhs)
            if accepts[end] is None:
                accepts[end] = i
        for j, schema in enumerate(system.schemas):
            initial.append(new_position())
            run = extend(initial[-1], schema.prefix + schema.pumped * schema.min_exponent)
            moves[run][ids[schema.pumped]] = run
            accepts[extend(run, schema.suffix)] = len(system.rules) + j

        self.symbol_ids = ids
        self.rhs_ids = tuple(
            tuple(ids[ch] for ch in rhs)
            for rhs in [r.rhs for r in system.rules] + [s.rhs for s in system.schemas]
        )
        self._rules = system.rules
        self._schemas = system.schemas
        self._moves = moves
        self._accepts = accepts
        self._initial = frozenset(initial)
        self._states: dict[frozenset[int], AutomatonState] = {}
        self.start = self._state(self._initial)

    def _state(self, positions: frozenset[int]) -> AutomatonState:
        state = self._states.get(positions)
        if state is None:
            named = [self._accepts[p] for p in positions if self._accepts[p] is not None]
            state = AutomatonState(
                positions, min(named) if named else None, len(self.symbol_ids)
            )
            state = self._states.setdefault(positions, state)
        return state

    def step(self, state: AutomatonState, symbol: int) -> AutomatonState:
        """The state after reading symbol id ``symbol`` in ``state``."""
        target = state.next[symbol]
        if target is None:
            moves = self._moves
            target = self._state(
                self._initial.union(
                    moves[p][symbol] for p in state.positions if symbol in moves[p]
                )
            )
            state.next[symbol] = target
        return target

    def match_length(self, rule: int, word: Word) -> int:
        """Length of the left side of ``rule`` that ends ``word``, where
        reading ``word`` ends in a state that names ``rule``.

        A schema's length counts the full pumped run before its suffix,
        as a match found by scanning would.
        """
        if rule < len(self._rules):
            return len(self._rules[rule].lhs)
        schema = self._schemas[rule - len(self._rules)]
        run_end = len(word) - len(schema.suffix)
        run_start = len(word[:run_end].rstrip(schema.pumped))
        return len(word) - run_start + len(schema.prefix)


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


def _match_schema(schema: RuleSchema, w: Word, pos: int) -> tuple[int, int] | None:
    """Return (exponent, matched length) for a schema match at ``pos``."""
    if not w.startswith(schema.prefix, pos):
        return None
    run_start = pos + len(schema.prefix)
    run_end = run_start
    while run_end < len(w) and w[run_end] == schema.pumped:
        run_end += 1
    exponent = run_end - run_start
    if exponent < schema.min_exponent:
        return None
    if not w.startswith(schema.suffix, run_end):
        return None
    return exponent, run_end - pos + len(schema.suffix)


def iter_matches(system: RewritingSystem, w: Word) -> Iterator[Match]:
    """Yield every match in ``w`` in (position, rule index) order.

    ``w`` is not checked against the alphabet; callers check it once.
    """
    n_rules = len(system.rules)
    for pos in range(len(w)):
        for idx, rule in enumerate(system.rules):
            if w.startswith(rule.lhs, pos):
                yield Match(idx, pos, len(rule.lhs))
        for jdx, schema in enumerate(system.schemas):
            hit = _match_schema(schema, w, pos)
            if hit is not None:
                exponent, length = hit
                yield Match(n_rules + jdx, pos, length, exponent)


def find_matches(system: RewritingSystem, w: Word) -> list[Match]:
    """All matches in ``w``, ordered by position then rule index.

    Schema matches report the full pumped run at their position.
    """
    system.check_word(w)
    return list(iter_matches(system, w))


def first_match(system: RewritingSystem, w: Word) -> Match | None:
    system.check_word(w)
    return next(iter_matches(system, w), None)


def describe_match(system: RewritingSystem, match: Match) -> str:
    text = f"{system.label(match.rule_index)} at position {match.position}"
    if match.exponent is not None:
        text += f" (n={match.exponent})"
    return text


@dataclass(frozen=True)
class ReductionStep:
    match: Match
    result: Word


def reduction_steps(system: RewritingSystem, w: Word) -> list[ReductionStep]:
    """Rewrite ``w`` to a fixed point, recording each applied match.

    Every step must strictly shorten the word; a step that does not is
    refused so that a non-length-reducing system cannot loop here.
    ``w`` is checked against the alphabet once; every later word holds
    only its symbols and right sides, which the system has checked.
    """
    system.check_word(w)
    n_rules = len(system.rules)
    steps: list[ReductionStep] = []
    current = w
    while True:
        match = next(iter_matches(system, current), None)
        if match is None:
            return steps
        i = match.rule_index
        rhs = system.rules[i].rhs if i < n_rules else system.schemas[i - n_rules].rhs
        end = match.position + match.matched_length
        nxt = current[: match.position] + rhs + current[end:]
        if len(nxt) >= len(current):
            raise ValueError(
                f"rule {system.label(match.rule_index)} did not shorten the word; "
                "the system is not length-reducing"
            )
        steps.append(ReductionStep(match, nxt))
        current = nxt


def normal_form(system: RewritingSystem, w: Word) -> Word:
    """The irreducible word reached from ``w`` by first-match reduction."""
    steps = reduction_steps(system, w)
    return steps[-1].result if steps else w


def is_irreducible(system: RewritingSystem, w: Word) -> bool:
    """Whether no left side occurs in ``w``; equal to
    ``first_match(system, w) is None``, read off the system's automaton.

    ``w`` goes through :meth:`RewritingSystem.check_word` first, so a
    symbol outside the alphabet raises its ValueError wherever it is,
    also after a left side.
    """
    system.check_word(w)
    automaton = system.automaton
    state = automaton.start
    for ch in w:
        state = automaton.step(state, automaton.symbol_ids[ch])
        if state.rule is not None:
            return False
    return True


def check_length_reducing(system: RewritingSystem) -> tuple[int, ...]:
    """The combined indices of the rules, and of the schemas at their
    minimal exponent, that do not strictly shorten the word; empty when
    every one does.
    """
    failing: list[int] = []
    for i, rule in enumerate(system.rules):
        if len(rule.lhs) <= len(rule.rhs):
            failing.append(i)
    for j, schema in enumerate(system.schemas):
        shortest = len(schema.prefix) + schema.min_exponent + len(schema.suffix)
        if shortest <= len(schema.rhs):
            failing.append(len(system.rules) + j)
    return tuple(failing)
