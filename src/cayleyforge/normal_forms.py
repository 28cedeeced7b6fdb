"""Structured normal forms for the built-in monoids and the bijection
between them.

Every normal form splits once into a head and a trailing run.  For M the
head runs through the last ``a``: it is ``b^s u`` with ``u`` a block word
(a-blocks joined by single b's), and the trailing run is ``b^t``.  For N
the head is ``d^p v`` with ``v`` the maximal c-blocks joined by single
d's, and the trailing run is ``(dddc)^q d^r`` with ``0 <= r <= 3``.  A
word without ``a`` (or ``c``) is all head.  The classifiers and the
bijection read the same split.

``m_to_n`` is φ, a letter-to-letter map: the head is relabelled
(a -> c, b -> d), and the i-th symbol of the trailing run becomes ``c``
exactly when 4 divides i, so ``b^t`` becomes ``(dddc)^q d^r`` with
``t = 4q + r``.  It is a length-preserving bijection between the two
normal-form sets, and ``n_to_m`` inverts it by relabelling the head back
and writing ``b`` for every symbol of the trailing run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import system_m, system_n
from .rewriting import (
    IncompleteSystemError,
    RewritingSystem,
    Word,
    describe_match,
    first_match,
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


def _split_m(w: Word) -> int:
    """Length of the head of an M normal form: through its last ``a``,
    or the whole word if it has none."""
    return w.rfind("a") + 1 or len(w)


def _split_n(w: Word) -> int:
    """Length of the head ``d^p v`` of an N normal form, or of the whole
    word if it has no ``c``.  ``v`` has no ``dd``, and a trailing run of
    length >= 2 starts with one, so ``v`` ends at the last ``c`` before
    the first ``dd`` after the first ``c``."""
    first_c = w.find("c")
    if first_c < 0:
        return len(w)
    end = w.find("dd", first_c)
    return w.rfind("c", 0, end if end >= 0 else len(w)) + 1


def _require_irreducible(system: RewritingSystem, w: Word) -> None:
    match = first_match(system, w)
    if match is not None:
        raise ClassificationError(
            f"word {w!r} is reducible: {describe_match(system, match)}"
        )


@dataclass(frozen=True)
class MNormalForm:
    """Decomposition ``b^s [u [b^t]]`` of an irreducible M word; its
    kind is NFM1, NFM2 or NFM3 as ``u`` and ``t`` are present."""

    s: int
    u: str | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if self.t is not None and (self.u is None or self.t < 1):
            raise ValueError("the tail b^t needs u and t > 0")
        if self.u is not None and not is_um_word(self.u):
            raise ValueError(f"{self.u!r} is not a block word over a/b")

    @property
    def kind(self) -> str:
        return "NFM1" if self.u is None else "NFM2" if self.t is None else "NFM3"

    def word(self) -> Word:
        return "b" * self.s + (self.u or "") + "b" * (self.t or 0)


@dataclass(frozen=True)
class NNormalForm:
    """Decomposition ``d^p [v [(dddc)^q d^r]]`` of an irreducible N word;
    its kind is NFN1, NFN2 or NFN3 as ``v`` and ``q``, ``r`` are present."""

    p: int
    v: str | None = None
    q: int | None = None
    r: int | None = None

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if (self.q is None) != (self.r is None):
            raise ValueError("q and r must be given together")
        if self.q is not None and (
            self.v is None or self.q < 0 or not 0 <= self.r <= 3 or self.q + self.r == 0
        ):
            raise ValueError("the tail (dddc)^q d^r needs v, q >= 0, 0 <= r <= 3 and q + r > 0")
        if self.v is not None and not is_un_word(self.v):
            raise ValueError(f"{self.v!r} is not a block word over c/d")

    @property
    def kind(self) -> str:
        return "NFN1" if self.v is None else "NFN2" if self.q is None else "NFN3"

    def word(self) -> Word:
        return "d" * self.p + (self.v or "") + "dddc" * (self.q or 0) + "d" * (self.r or 0)


def classify_m(w: Word) -> MNormalForm:
    """Decompose an irreducible word of the M system.

    Raises :class:`ClassificationError` (naming the match) on reducible
    input.
    """
    _require_irreducible(system_m(), w)
    s = len(w) - len(w.lstrip("b"))
    if s == len(w):
        return MNormalForm(s)
    cut = _split_m(w)
    u, t = w[s:cut], len(w) - cut
    return MNormalForm(s, u, t or None)


def classify_n(w: Word) -> NNormalForm:
    """Decompose an irreducible word of the N system.

    The block word ``v`` is the maximal run of c-blocks joined by single
    d's after the leading d's; the rest is then forced to be
    ``(dddc)^q d^r`` with ``r <= 3``, and any other shape is reported
    loudly as an internal error.
    """
    _require_irreducible(system_n(), w)
    p = len(w) - len(w.lstrip("d"))
    if p == len(w):
        return NNormalForm(p)
    cut = _split_n(w)
    v, (q, r) = w[p:cut], divmod(len(w) - cut, 4)
    nf = NNormalForm(p, v, q, r) if q or r else NNormalForm(p, v)
    if nf.word() != w:
        raise RuntimeError(
            f"irreducible word {w!r} has tail {w[cut:]!r} after {v!r}; this "
            "cannot happen for an irreducible word and means the "
            "decomposition is broken"
        )
    return nf


_AB_TO_CD = str.maketrans("ab", "cd")
_CD_TO_AB = str.maketrans("cd", "ab")

# One period of φ's image of a trailing b-run: its i-th symbol is
# _N_TAIL[(i - 1) % 4], so c exactly when 4 divides i.
_N_TAIL = "dddc"


def ab_to_cd(w: Word) -> Word:
    """Symbol-wise relabeling a -> c, b -> d."""
    return w.translate(_AB_TO_CD)


def cd_to_ab(w: Word) -> Word:
    return w.translate(_CD_TO_AB)


def phi(w: Word) -> Word:
    """φ read letter by letter, for a word already known to be an M
    normal form (such as a ball vertex); the input is not checked."""
    cut = _split_m(w)
    t = len(w) - cut
    return ab_to_cd(w[:cut]) + (_N_TAIL * (t // len(_N_TAIL) + 1))[:t]


def m_to_n(w: Word) -> Word:
    """Map an irreducible M word to its partner N normal form, φ(w).

    ``b^s -> d^s``, ``b^s u -> d^s u-bar``, and ``b^s u b^t ->
    d^s u-bar (dddc)^q d^r`` with ``t = 4q + r``; the image has the same
    length as the input.  Raises :class:`ClassificationError` on
    reducible input.
    """
    _require_irreducible(system_m(), w)
    return phi(w)


def n_to_m(w: Word) -> Word:
    """Inverse of :func:`m_to_n`: relabel the head back and write ``b``
    for every symbol of the trailing run."""
    _require_irreducible(system_n(), w)
    cut = _split_n(w)
    return cd_to_ab(w[:cut]) + "b" * (len(w) - cut)


def enumerate_normal_forms(system: RewritingSystem, max_len: int) -> list[Word]:
    """All irreducible words of length up to ``max_len`` in shortlex
    order.

    A breadth-first search over the automaton's transitions: a word's
    extensions ``w.g`` are read off the state of ``w`` in one step each,
    and the irreducible ones are kept.  This is exact because a factor
    occurring in a prefix occurs in the whole word, so prefixes of
    irreducible words are irreducible.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if not system.is_certified:
        raise IncompleteSystemError(
            "enumerate_normal_forms needs a certified system; call certify() first"
        )
    automaton = system.automaton
    step, letters = automaton.step, tuple(enumerate(system.alphabet))
    words: list[Word] = [""]
    states = [automaton.start]
    begin = 0
    for _ in range(max_len):
        end = len(words)
        for i in range(begin, end):
            w, state = words[i], states[i]
            known = state.next
            for symbol, g in letters:
                nxt = known[symbol] or step(state, symbol)
                if nxt.rule is None:
                    words.append(w + g)
                    states.append(nxt)
        if len(words) == end:
            break
        begin = end
    return words
