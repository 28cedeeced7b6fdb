"""φ on the normal forms of M, and the enumeration of irreducible words.

Every normal form of M splits once into a head and a trailing run: the
head runs through the last ``a`` (the whole word if it has none), and
the trailing run is ``b^t``.  φ is a letter-to-letter map: the head is
relabelled (a -> c, b -> d), and the i-th symbol of the trailing run
becomes ``c`` exactly when 4 divides i, so ``b^t`` becomes
``(dddc)^q d^r`` with ``t = 4q + r``.  It is a length-preserving
bijection from the normal forms of M onto those of N.  The paper's
normal-form lemma itself (NFM1-3 and NFN1-3) is stated, library-free,
as two patterns in ``tests/oracles.py``.
"""

from __future__ import annotations

from .rewriting import IncompleteSystemError, RewritingSystem, Word


def _split_m(w: Word) -> int:
    """Length of the head of an M normal form: through its last ``a``,
    or the whole word if it has none."""
    return w.rfind("a") + 1 or len(w)


_AB_TO_CD = str.maketrans("ab", "cd")

# One period of φ's image of a trailing b-run: its i-th symbol is
# _N_TAIL[(i - 1) % 4], so c exactly when 4 divides i.
_N_TAIL = "dddc"


def ab_to_cd(w: Word) -> Word:
    """Symbol-wise relabeling a -> c, b -> d."""
    return w.translate(_AB_TO_CD)


def phi(w: Word) -> Word:
    """φ read letter by letter, for a word already known to be an M
    normal form (such as a ball vertex); the input is not checked."""
    cut = _split_m(w)
    t = len(w) - cut
    return ab_to_cd(w[:cut]) + (_N_TAIL * (t // len(_N_TAIL) + 1))[:t]


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
