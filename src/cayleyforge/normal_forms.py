"""Structured normal forms for the built-in monoids and the bijection
between them.

Every irreducible word of the M system decomposes uniquely as
``b^s u b^t`` where ``u`` is a block word: a-blocks separated by single
b's (``s >= 0``; ``u`` and the trailing run may be absent).  Every
irreducible word of the N system decomposes as ``d^p v (dddc)^q d^r``
with ``v`` a block word of c-blocks separated by single d's, ``0 <= r <= 3``
and ``q + r > 0`` unless both are absent.

``m_to_n`` relabels the head of the decomposition (a -> c, b -> d) and
recodes the trailing run ``b^t`` as ``(dddc)^q d^r`` with ``t = 4q + r``;
it is a length-preserving bijection between the two normal-form sets,
and ``n_to_m`` inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import system_m, system_n
from .rewriting import (
    AutomatonState,
    IncompleteSystemError,
    RewritingSystem,
    Word,
    describe_match,
    first_match,
    is_irreducible,
)


class ClassificationError(ValueError):
    """The word handed to a classifier is not irreducible."""


def is_block_word(w: Word, block: str, separator: str) -> bool:
    """Nonempty runs of ``block`` joined by single ``separator`` chars,
    starting and ending with a block."""
    if not w:
        return False
    parts = w.split(separator)
    return all(part and set(part) == {block} for part in parts)


def is_um_word(w: Word) -> bool:
    return is_block_word(w, "a", "b")


def is_un_word(w: Word) -> bool:
    return is_block_word(w, "c", "d")


def _run_length(w: Word, start: int, ch: str) -> int:
    i = start
    while i < len(w) and w[i] == ch:
        i += 1
    return i - start


def _require_irreducible(system: RewritingSystem, w: Word) -> None:
    if not is_irreducible(system, w):
        match = first_match(system, w)
        raise ClassificationError(
            f"word {w!r} is reducible: {describe_match(system, match)}"
        )


@dataclass(frozen=True)
class MNormalForm:
    """Decomposition ``b^s [u [b^t]]`` of an irreducible M word."""

    kind: str  # "NFM1" | "NFM2" | "NFM3"
    s: int
    u: str | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if self.kind == "NFM1":
            ok = self.u is None and self.t is None
        elif self.kind == "NFM2":
            ok = self.u is not None and self.t is None
        elif self.kind == "NFM3":
            ok = self.u is not None and self.t is not None and self.t > 0
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not ok:
            raise ValueError(f"inconsistent parameters for {self.kind}")
        if self.u is not None and not is_um_word(self.u):
            raise ValueError(f"{self.u!r} is not a block word over a/b")

    def word(self) -> Word:
        return "b" * self.s + (self.u or "") + "b" * (self.t or 0)


@dataclass(frozen=True)
class NNormalForm:
    """Decomposition ``d^p [v [(dddc)^q d^r]]`` of an irreducible N word."""

    kind: str  # "NFN1" | "NFN2" | "NFN3"
    p: int
    v: str | None = None
    q: int | None = None
    r: int | None = None

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.kind == "NFN1":
            ok = self.v is None and self.q is None and self.r is None
        elif self.kind == "NFN2":
            ok = self.v is not None and self.q is None and self.r is None
        elif self.kind == "NFN3":
            ok = (
                self.v is not None
                and self.q is not None
                and self.r is not None
                and self.q >= 0
                and 0 <= self.r <= 3
                and self.q + self.r > 0
            )
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not ok:
            raise ValueError(f"inconsistent parameters for {self.kind}")
        if self.v is not None and not is_un_word(self.v):
            raise ValueError(f"{self.v!r} is not a block word over c/d")

    def word(self) -> Word:
        return "d" * self.p + (self.v or "") + "dddc" * (self.q or 0) + "d" * (self.r or 0)


def classify_m(w: Word) -> MNormalForm:
    """Decompose an irreducible word of the M system.

    Raises :class:`ClassificationError` (naming the match) on reducible
    input.
    """
    _require_irreducible(system_m(), w)
    s = _run_length(w, 0, "b")
    if s == len(w):
        return MNormalForm("NFM1", s)
    last_a = w.rfind("a")
    u = w[s : last_a + 1]
    if not is_um_word(u):
        raise RuntimeError(
            f"irreducible word {w!r} has middle part {u!r} that is not a block "
            "word; the normal-form decomposition is broken"
        )
    t = len(w) - (last_a + 1)
    if t == 0:
        return MNormalForm("NFM2", s, u)
    return MNormalForm("NFM3", s, u, t)


def classify_n(w: Word) -> NNormalForm:
    """Decompose an irreducible word of the N system.

    The block word ``v`` is the maximal prefix of c-blocks joined by
    single d's; the rest is then forced to be ``(dddc)^q d^r`` with
    ``r <= 3``, and any other shape is reported loudly as an internal
    error.
    """
    _require_irreducible(system_n(), w)
    p = _run_length(w, 0, "d")
    if p == len(w):
        return NNormalForm("NFN1", p)
    i = p
    while True:
        i += _run_length(w, i, "c")
        if w.startswith("dc", i):
            i += 1  # single separator, another c-block follows
        else:
            break
    v = w[p:i]
    if not is_un_word(v):
        raise RuntimeError(
            f"irreducible word {w!r} has middle part {v!r} that is not a block "
            "word; the normal-form decomposition is broken"
        )
    rest = w[i:]
    q = 0
    while rest.startswith("dddc"):
        q += 1
        rest = rest[4:]
    r = len(rest)
    if rest != "d" * r or r > 3:
        raise RuntimeError(
            f"irreducible word {w!r} has tail {rest!r} after {v!r}; this cannot "
            "happen for an irreducible word and means the decomposition is broken"
        )
    if q == 0 and r == 0:
        return NNormalForm("NFN2", p, v)
    return NNormalForm("NFN3", p, v, q, r)


_AB_TO_CD = str.maketrans("ab", "cd")
_CD_TO_AB = str.maketrans("cd", "ab")


def ab_to_cd(w: Word) -> Word:
    """Symbol-wise relabeling a -> c, b -> d."""
    return w.translate(_AB_TO_CD)


def cd_to_ab(w: Word) -> Word:
    return w.translate(_CD_TO_AB)


def m_to_n(w: Word) -> Word:
    """Map an irreducible M word to its partner N normal form.

    ``b^s -> d^s``, ``b^s u -> d^s u-bar``, and ``b^s u b^t ->
    d^s u-bar (dddc)^q d^r`` with ``t = 4q + r``; the image has the same
    length as the input.
    """
    nf = classify_m(w)
    if nf.kind == "NFM1":
        return "d" * nf.s
    if nf.kind == "NFM2":
        return "d" * nf.s + ab_to_cd(nf.u)
    q, r = divmod(nf.t, 4)
    return "d" * nf.s + ab_to_cd(nf.u) + "dddc" * q + "d" * r


def n_to_m(w: Word) -> Word:
    """Inverse of :func:`m_to_n`."""
    nf = classify_n(w)
    if nf.kind == "NFN1":
        return "b" * nf.p
    if nf.kind == "NFN2":
        return "b" * nf.p + cd_to_ab(nf.v)
    t = 4 * nf.q + nf.r
    return "b" * nf.p + cd_to_ab(nf.v) + "b" * t


def _irreducible_words(
    system: RewritingSystem, max_len: int
) -> tuple[list[Word], list[AutomatonState]]:
    """All irreducible words of length up to ``max_len`` in shortlex
    order, each with the state of ``system.automaton`` it ends in.

    A breadth-first search over the automaton's transitions: a word's
    extensions ``w.g`` are read off the state of ``w`` in one step each,
    and the irreducible ones are kept.  This is exact because a factor
    occurring in a prefix occurs in the whole word, so prefixes of
    irreducible words are irreducible.
    """
    automaton = system.automaton
    words: list[Word] = [""]
    states = [automaton.start]
    begin = 0
    for _ in range(max_len):
        end = len(words)
        for i in range(begin, end):
            w, state = words[i], states[i]
            for symbol, g in enumerate(system.alphabet):
                nxt = automaton.step(state, symbol)
                if nxt.rule is None:
                    words.append(w + g)
                    states.append(nxt)
        if len(words) == end:
            break
        begin = end
    return words, states


def enumerate_normal_forms(system: RewritingSystem, max_len: int) -> list[Word]:
    """All irreducible words of length up to ``max_len`` in shortlex order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if not system.is_certified:
        raise IncompleteSystemError(
            "enumerate_normal_forms needs a certified system; call certify() first"
        )
    return _irreducible_words(system, max_len)[0]
