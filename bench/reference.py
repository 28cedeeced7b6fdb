"""Independent reference checks for the benchmark.

Nothing here imports cayleyforge.  The rules of M and N are written out
again from the paper, words are tested with plain ``str.find`` scans over
concrete left-hand sides, ball sizes come from a count over the rule list,
certificates are re-checked by comparing arc multisets and critical pairs
are joined by following every rewrite step, not one strategy.  A check that
reused the library's matcher or enumerator would only echo its answers.
"""

from __future__ import annotations

import itertools
from collections import Counter

M_ALPHABET = "ab"
N_ALPHABET = "cd"
N_RULES = (("cddc", "cdc"), ("cdddd", "cdc"), ("cdddcc", "cdc"), ("cdddcdc", "cdc"))


def m_rules(max_len: int) -> list[tuple[str, str]]:
    """The instances ``a b^n a -> a b a`` of M's family up to a lhs length."""
    return [("a" + "b" * n + "a", "aba") for n in range(2, max_len - 1)]


def rules_for(name: str, max_len: int) -> list[tuple[str, str]]:
    return m_rules(max_len) if name == "M" else list(N_RULES)


def irreducible(word: str, rules) -> bool:
    """No left-hand side occurs in ``word``."""
    return all(word.find(lhs) < 0 for lhs, _ in rules)


def irreducible_in(name: str, word: str) -> bool:
    """Irreducibility under builtin M or N.

    For M only the instances whose b-run fits one of the word's b-runs
    can occur, so the scan stops at the longest run.
    """
    if name == "M":
        longest = max(len(run) for run in word.split("a"))
        return all(word.find("a" + "b" * n + "a") < 0 for n in range(2, longest + 1))
    return irreducible(word, N_RULES)


def invariants(name: str, word: str) -> tuple[int, ...]:
    """Quantities every rule of the system preserves.

    M's rules rewrite factors that start and end with ``a`` and keep two
    a's, so the a-count and the leading b-run survive; N's rules rewrite
    factors that start with ``c``, so the leading d-run survives.
    """
    if name == "M":
        return word.count("a"), len(word) - len(word.lstrip("b"))
    return (len(word) - len(word.lstrip("d")),)


def reduce_naive(word: str, rules) -> str:
    """Rewrite with the first rule that occurs until none does."""
    while True:
        for lhs, rhs in rules:
            k = word.find(lhs)
            if k >= 0:
                word = word[:k] + rhs + word[k + len(lhs):]
                break
        else:
            return word


def critical_pairs(rules) -> list[tuple[str, str, str]]:
    """(source, descendant, descendant) of every overlap (a proper suffix
    of one lhs is a proper prefix of another) and containment (one lhs
    inside another, a rule inside itself excluded), over ordered pairs of
    rules."""
    pairs = []
    for i, (u, v) in enumerate(rules):
        for j, (z, t) in enumerate(rules):
            for q in range(1, min(len(u), len(z))):
                if u.endswith(z[:q]):
                    pairs.append((u + z[q:], v + z[q:], u[: len(u) - q] + t))
            for k in range(len(u) - len(z) + 1):
                if u.startswith(z, k) and not (i == j and k == 0):
                    pairs.append((u, v, u[:k] + t + u[k + len(z):]))
    return pairs


def critical_pair_count(rules) -> int:
    return len(critical_pairs(rules))


def successors(word: str, rules, schemas) -> set[str]:
    """Every word one rewrite step from ``word``.

    A concrete rule rewrites any occurrence of its lhs.  A schema
    (prefix, pumped, min exponent, suffix, rhs) rewrites a prefix
    occurrence together with the whole run of the pumped letter after it,
    if that run is long enough and the suffix follows it.
    """
    out = set()
    for lhs, rhs in rules:
        k = word.find(lhs)
        while k >= 0:
            out.add(word[:k] + rhs + word[k + len(lhs):])
            k = word.find(lhs, k + 1)
    for prefix, pumped, least, suffix, rhs in schemas:
        for pos in range(len(word)):
            if not word.startswith(prefix, pos):
                continue
            end = start = pos + len(prefix)
            while end < len(word) and word[end] == pumped:
                end += 1
            if end - start >= least and word.startswith(suffix, end):
                out.add(word[:pos] + rhs + word[end + len(suffix):])
    return out


def joinable(left: str, right: str, rules, schemas, memo: dict) -> bool:
    """Whether the two words rewrite to a common irreducible word, for a
    terminating system.  ``memo`` keeps each word's set of irreducible
    descendants between calls for the same system."""

    def irreducible_descendants(word: str) -> frozenset:
        if word not in memo:
            nxt = successors(word, rules, schemas)
            memo[word] = (
                frozenset().union(*map(irreducible_descendants, nxt))
                if nxt else frozenset({word})
            )
        return memo[word]

    return bool(irreducible_descendants(left) & irreducible_descendants(right))


def count_irreducible(alphabet: str, rules, radius: int) -> int:
    """Number of words of length <= radius in which no lhs occurs.

    Words are grown one symbol at a time; the state is the longest
    suffix that is a proper prefix of some lhs, which is all a later
    occurrence can depend on.
    """
    left_sides = [lhs for lhs, _ in rules]
    prefixes = {""} | {lhs[:i] for lhs in left_sides for i in range(len(lhs))}
    steps: dict[tuple[str, str], str | None] = {}

    def step(state: str, g: str) -> str | None:
        key = (state, g)
        if key not in steps:
            t = state + g
            if any(t.endswith(lhs) for lhs in left_sides):
                steps[key] = None
            else:
                while t not in prefixes:
                    t = t[1:]
                steps[key] = t
        return steps[key]

    level = Counter({"": 1})
    total = 1
    for _ in range(radius):
        nxt: Counter = Counter()
        for state, count in level.items():
            for g in alphabet:
                target = step(state, g)
                if target is not None:
                    nxt[target] += count
        level = nxt
        total += sum(nxt.values())
    return total


def is_isomorphism(n: int, arcs1, arcs2, mapping) -> bool:
    """``mapping`` is a bijection of 0..n-1 carrying arcs1 onto arcs2,
    multiplicities included."""
    if len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return Counter((mapping[s], mapping[d]) for s, d in arcs1) == Counter(arcs2)


def ball_arcs(alphabet: str, rules, radius: int, side: str) -> tuple[int, list]:
    """Vertex count and arcs of a closed ball, built by brute force."""
    words = [
        "".join(p)
        for length in range(radius + 1)
        for p in itertools.product(alphabet, repeat=length)
    ]
    vertices = [w for w in words if irreducible(w, rules)]
    index = {w: i for i, w in enumerate(vertices)}
    arcs = []
    for i, v in enumerate(vertices):
        for g in alphabet:
            target = reduce_naive(v + g if side == "right" else g + v, rules)
            if len(target) <= radius:
                arcs.append((i, index[target]))
    return len(vertices), arcs


def degree_pairs(n: int, arcs) -> list[tuple[int, int]]:
    """(in-degree, out-degree) of every vertex."""
    indeg, outdeg = [0] * n, [0] * n
    for s, d in arcs:
        outdeg[s] += 1
        indeg[d] += 1
    return list(zip(indeg, outdeg))


def degree_profiles(n: int, arcs) -> list:
    """Sorted per-vertex (degree pair, out-neighbour degrees, in-neighbour
    degrees) profiles."""
    deg = degree_pairs(n, arcs)
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for s, d in arcs:
        outs[s].append(d)
        ins[d].append(s)
    return sorted(
        (deg[v], sorted(deg[u] for u in outs[v]), sorted(deg[u] for u in ins[v]))
        for v in range(n)
    )


def find_small_isomorphism(n: int, arcs1, arcs2):
    """Plain backtracking over degree-compatible vertices; for graphs of
    a few dozen vertices only.  Returns a mapping or None."""
    adj1, adj2 = Counter(arcs1), Counter(arcs2)
    deg1, deg2 = degree_pairs(n, arcs1), degree_pairs(n, arcs2)
    mapping = [-1] * n
    used = [False] * n

    def fits(v: int, w: int) -> bool:
        for u in range(v):
            x = mapping[u]
            if adj1[(v, u)] != adj2[(w, x)] or adj1[(u, v)] != adj2[(x, w)]:
                return False
        return adj1[(v, v)] == adj2[(w, w)]

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if not used[w] and deg1[v] == deg2[w] and fits(v, w):
                mapping[v], used[w] = w, True
                if extend(v + 1):
                    return True
                mapping[v], used[w] = -1, False
        return False

    return tuple(mapping) if extend(0) else None

