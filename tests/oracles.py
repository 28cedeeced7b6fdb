"""Brute-force oracles, written independently of the library internals.

These deliberately avoid the library's matching/enumeration code paths:
they work on concrete (lhs, rhs) string pairs with str.startswith/find
only, so they can confirm the library's answers rather than echo them.
The paper's normal-form lemma for the builtins is stated here too, as
two regular expressions.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

# The paper's normal-form lemma.  The irreducible words of M are b^s
# (NFM1), b^s u (NFM2) and b^s u b^t (NFM3), with u nonempty runs of a
# joined by single b's and t >= 1; those of N are d^p (NFN1), d^p v
# (NFN2) and d^p v (dddc)^q d^r (NFN3), with v nonempty runs of c joined
# by single d's, 0 <= r <= 3 and q + r >= 1.
M_NORMAL_FORM = re.compile(r"(?P<s>b*)(?:(?P<u>a+(?:ba+)*)(?P<t>b*))?")
N_NORMAL_FORM = re.compile(r"(?P<p>d*)(?:(?P<v>c+(?:dc+)*)(?P<tail>(?:dddc)*d{0,3}))?")


def _kind(name, match):
    if match is None:
        return None
    _, block, tail = match.groups()
    return f"{name}{1 if block is None else 2 if not tail else 3}"


def m_kind(word):
    """``NFM1``, ``NFM2`` or ``NFM3`` for a word matching
    :data:`M_NORMAL_FORM`, or None."""
    return _kind("NFM", M_NORMAL_FORM.fullmatch(word))


def n_kind(word):
    """``NFN1``, ``NFN2`` or ``NFN3`` for a word matching
    :data:`N_NORMAL_FORM`, or None."""
    return _kind("NFN", N_NORMAL_FORM.fullmatch(word))


def phi_inverse(word):
    """The M normal form that φ sends to the N normal form ``word``:
    the head ``d^p v`` relabelled c -> a, d -> b, then one b for each
    symbol of the tail."""
    match = N_NORMAL_FORM.fullmatch(word)
    head = match["p"] + (match["v"] or "")
    return head.translate(str.maketrans("cd", "ab")) + "b" * len(match["tail"] or "")


def concrete_rules(system, schema_bound):
    """All (lhs, rhs) pairs: rules plus schema instances up to the bound."""
    pairs = [(rule.lhs, rule.rhs) for rule in system.rules]
    for schema in system.schemas:
        for n in range(schema.min_exponent, schema_bound + 1):
            pairs.append((schema.prefix + schema.pumped * n + schema.suffix, schema.rhs))
    return pairs


def one_step_successors(word, rules):
    """Every word reachable by one rewrite anywhere, by plain scanning."""
    successors = []
    for lhs, rhs in rules:
        start = 0
        while True:
            k = word.find(lhs, start)
            if k < 0:
                break
            successors.append(word[:k] + rhs + word[k + len(lhs) :])
            start = k + 1
    return successors


def reachable_normal_forms(word, rules, memo=None):
    """The set of irreducible endpoints over ALL reduction strategies."""
    if memo is None:
        memo = {}
    cached = memo.get(word)
    if cached is not None:
        return cached
    successors = one_step_successors(word, rules)
    if not successors:
        result = frozenset({word})
    else:
        result = frozenset().union(
            *(reachable_normal_forms(s, rules, memo) for s in successors)
        )
    memo[word] = result
    return result


def words_up_to(alphabet, max_len):
    """Every word over the alphabet of length <= max_len, shortlex order."""
    for length in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=length):
            yield "".join(chars)


def irreducible_words_by_filter(system, schema_bound, max_len):
    """Enumerate-and-filter: keep words with no concrete lhs occurrence."""
    rules = concrete_rules(system, schema_bound + max_len)  # bound beyond reach
    return [
        w
        for w in words_up_to(system.alphabet, max_len)
        if not one_step_successors(w, rules)
    ]


def reduce_by_scanning(word, rules):
    """Rewrite the leftmost occurrence of the first rule that occurs,
    until no rule does."""
    while True:
        for lhs, rhs in rules:
            k = word.find(lhs)
            if k >= 0:
                word = word[:k] + rhs + word[k + len(lhs) :]
                break
        else:
            return word


def _rewrite_at(system, word, pos):
    """``(index, exponent, result)`` for the lowest rule or schema
    (rules first) whose left side starts at ``pos``, or None.  A schema
    takes the whole run of its pumped symbol after its prefix."""
    index = 0
    for rule in system.rules:
        if word[pos : pos + len(rule.lhs)] == rule.lhs:
            return index, None, word[:pos] + rule.rhs + word[pos + len(rule.lhs) :]
        index += 1
    for schema in system.schemas:
        head = pos + len(schema.prefix)
        if word[pos:head] == schema.prefix:
            rest = word[head:]
            exponent = len(rest) - len(rest.lstrip(schema.pumped))
            tail = head + exponent
            end = tail + len(schema.suffix)
            if exponent >= schema.min_exponent and word[tail:end] == schema.suffix:
                return index, exponent, word[:pos] + schema.rhs + word[end:]
        index += 1
    return None


def lowest_left_side_ending(system, word):
    """``(index, length)`` of the lowest rule or schema (rules first)
    whose left side ends ``word``, or None.  A schema's left side takes
    the whole run of its pumped symbol before its suffix."""
    index = 0
    for rule in system.rules:
        if word.endswith(rule.lhs):
            return index, len(rule.lhs)
        index += 1
    for schema in system.schemas:
        head = word[: len(word) - len(schema.suffix)]
        run = len(head) - len(head.rstrip(schema.pumped))
        if (
            word.endswith(schema.suffix)
            and run >= schema.min_exponent
            and head[: len(head) - run].endswith(schema.prefix)
        ):
            return index, len(schema.prefix) + run + len(schema.suffix)
        index += 1
    return None


def reduce_by_position(system, word):
    """Every step of first-match reduction, rescanning the whole word
    from its first position after each rewrite: ``(rule index, position,
    exponent, result)`` for each step, the exponent None for a rule."""
    steps = []
    while True:
        for pos in range(len(word)):
            hit = _rewrite_at(system, word, pos)
            if hit is not None:
                index, exponent, word = hit
                steps.append((index, pos, exponent, word))
                break
        else:
            return steps


def critical_pairs_by_slicing(rules):
    """``(source, left result, right result, kind)`` of every critical
    pair of the ``(lhs, rhs)`` rules, in the order the library yields
    them: per ordered pair of rules, the overlaps by growing shared
    part, each tried by slicing, then the containments from the left."""
    pairs = []
    for i, (u, v) in enumerate(rules):
        for j, (z, t) in enumerate(rules):
            for qlen in range(1, min(len(u), len(z))):
                if u[len(u) - qlen :] == z[:qlen]:
                    p = u[: len(u) - qlen]
                    pairs.append((p + z, v + z[qlen:], p + t, "overlap"))
            for k in range(len(u) - len(z) + 1):
                if u[k : k + len(z)] == z and not (i == j and k == 0):
                    pairs.append((u, v, u[:k] + t + u[k + len(z) :], "containment"))
    return pairs


def ball_by_reduction(system, side, radius, policy):
    """``(vertices, edges, frontier)`` of a Cayley ball: the irreducible
    words up to ``radius`` in shortlex order, and each product ``v.g``
    (right) or ``g.v`` (left) reduced by :func:`reduce_by_scanning`,
    as an edge when it lands in the ball and otherwise as a frontier
    target under the ``with_frontier`` policy."""
    vertices = tuple(irreducible_words_by_filter(system, radius, radius))
    rules = concrete_rules(system, radius + 1)  # every instance a product can hold
    index = {w: i for i, w in enumerate(vertices)}
    edges, frontier = [], []
    for src, v in enumerate(vertices):
        for g in system.alphabet:
            target = reduce_by_scanning(v + g if side == "right" else g + v, rules)
            if target in index:
                edges.append((src, index[target], g))
            elif policy == "with_frontier":
                frontier.append((src, g, target))
    return vertices, tuple(edges), tuple(frontier)


def strip_by_hand(vertices, edges):
    """``(n, arcs)`` of a ball with its labels dropped: one arc per
    edge, in sorted order."""
    return len(vertices), sorted((src, dst) for src, dst, _ in edges)


def rows_by_hand(n, arcs):
    """``(out, inc)`` of a digraph given as ``(n, arcs)``: for each
    vertex, the heads of the arcs leaving it and the tails of the arcs
    entering it, with multiplicity and in increasing order."""
    out = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for src, dst in sorted(arcs):
        out[src].append(dst)
        inc[dst].append(src)
    return tuple(map(tuple, out)), tuple(map(tuple, inc))


def fingerprint_by_hand(n, arcs):
    """``(vertex count, arc count, degree pairs, neighbour profiles)`` of
    a digraph given as ``(n, arcs)``, by sorting every vertex's entry.

    A vertex's degree pair is (in-degree, out-degree).  Its profile is
    its own pair, the sorted pairs of the heads of its arcs out and the
    sorted pairs of the tails of its arcs in, one per arc.  Both
    multisets are returned as sorted tuples.
    """
    heads = [[] for _ in range(n)]
    tails = [[] for _ in range(n)]
    for src, dst in arcs:
        heads[src].append(dst)
        tails[dst].append(src)
    pair = [(len(tails[v]), len(heads[v])) for v in range(n)]
    profiles = [
        (
            pair[v],
            tuple(sorted(pair[u] for u in heads[v])),
            tuple(sorted(pair[u] for u in tails[v])),
        )
        for v in range(n)
    ]
    return n, len(arcs), tuple(sorted(pair)), tuple(sorted(profiles))


def critical_sources_by_scan(rules):
    """Critical-pair multiset found by scanning whole words.

    A word is a critical source when two distinct rule occurrences
    overlap and jointly cover the word; the value of each entry is the
    unordered pair of one-step results.  Returned as a Counter keyed by
    (source, (result_a, result_b)) with the results sorted.
    """
    found = Counter()
    max_len = max(len(lhs) for lhs, _ in rules) * 2 - 1
    alphabet = sorted({ch for lhs, _ in rules for ch in lhs})
    for word in words_up_to(alphabet, max_len):
        spans = []
        for i, (lhs, rhs) in enumerate(rules):
            start = 0
            while True:
                k = word.find(lhs, start)
                if k < 0:
                    break
                spans.append((i, k, k + len(lhs), word[:k] + rhs + word[k + len(lhs) :]))
                start = k + 1
        for a in range(len(spans)):
            for b in range(a + 1, len(spans)):
                ia, sa, ea, ra = spans[a]
                ib, sb, eb, rb = spans[b]
                if ea <= sb or eb <= sa:
                    continue  # disjoint occurrences always commute
                if min(sa, sb) == 0 and max(ea, eb) == len(word):
                    found[(word, tuple(sorted((ra, rb))))] += 1
    return found


def refine_by_rounds(graphs):
    """Stable partition of the disjoint union of digraphs given as
    ``(n, arcs)`` pairs, by synchronous rounds over plain arc lists.

    Starts from (in-degree, out-degree, loops) and recolors every vertex
    in every round by its color plus the sorted colors of its out- and
    in-neighbours, until a round leaves the number of classes unchanged.
    Returns the classes as a set of frozensets of ``(graph, vertex)``.
    """
    vertices = [(k, v) for k, (n, _) in enumerate(graphs) for v in range(n)]
    out = {x: [] for x in vertices}
    inc = {x: [] for x in vertices}
    for k, (_, arcs) in enumerate(graphs):
        for src, dst in arcs:
            out[(k, src)].append((k, dst))
            inc[(k, dst)].append((k, src))
    color = {x: (len(inc[x]), len(out[x]), out[x].count(x)) for x in vertices}
    while True:
        signature = {
            x: (
                color[x],
                tuple(sorted(color[u] for u in out[x])),
                tuple(sorted(color[u] for u in inc[x])),
            )
            for x in vertices
        }
        names = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        refined = {x: names[signature[x]] for x in vertices}
        if len(names) == len(set(color.values())):
            break
        color = refined
    classes = {}
    for x in vertices:
        classes.setdefault(color[x], set()).add(x)
    return {frozenset(members) for members in classes.values()}


def backtrack_linear_scan(g1, g2, budget):
    """``(status, mapping, expansions)`` of a recursive backtracking search
    between digraphs given as ``(n, arcs)`` pairs.

    Vertices of ``g1`` may only map to vertices of the same class of
    :func:`refine_by_rounds`.  First each class with one vertex in each
    graph maps that vertex, in increasing index, one expansion each.
    Then the next vertex is found by scanning all unmapped ones for the
    least key (no mapped neighbour, size of its class in ``g1``, index).
    Its candidates are the vertices of its class, or, if it has a mapped
    neighbour, those of them joined to that neighbour's image in the
    same direction as it is joined to the neighbour; the neighbour is
    the first mapped one among its in-neighbours, then among its
    out-neighbours, each in increasing index.  Candidates are tried in
    increasing index, each costing one expansion, and one is kept when
    the arc multiplicities to and from every mapped vertex, and the
    loops, agree.  More than ``budget`` expansions give
    ``budget_exhausted``.
    """
    (n, arcs1), (n2, arcs2) = g1, g2
    if n != n2 or len(arcs1) != len(arcs2):
        return "non_isomorphic", None, 0
    if n == 0:
        return "isomorphic", (), 0
    class_of = {}
    for members in refine_by_rounds([g1, g2]):
        for x in members:
            class_of[x] = members
    for members in set(class_of.values()):
        if sum(k == 0 for k, _ in members) != sum(k == 1 for k, _ in members):
            return "non_isomorphic", None, 0
    size = [sum(k == 0 for k, _ in class_of[(0, v)]) for v in range(n)]
    candidates = [sorted(u for k, u in class_of[(0, v)] if k == 1) for v in range(n)]
    count1, count2 = Counter(arcs1), Counter(arcs2)
    neighbours = [set() for _ in range(n)]
    for src, dst in arcs1:
        neighbours[src].add(dst)
        neighbours[dst].add(src)
    mapping, inverse = {}, {}
    expansions = 0

    class Exhausted(Exception):
        pass

    def expand():
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise Exhausted

    def pick():
        keys = [
            (not any(u in mapping for u in neighbours[v]), size[v], v)
            for v in range(n)
            if v not in mapping
        ]
        return min(keys)[2]

    def tried(v1):
        for u in sorted(s for s, d in arcs1 if d == v1):
            if u in mapping:
                ends = {d for s, d in arcs2 if s == mapping[u]}
                return [v2 for v2 in candidates[v1] if v2 in ends]
        for u in sorted(d for s, d in arcs1 if s == v1):
            if u in mapping:
                ends = {s for s, d in arcs2 if d == mapping[u]}
                return [v2 for v2 in candidates[v1] if v2 in ends]
        return candidates[v1]

    def consistent(v1, v2):
        if count1[(v1, v1)] != count2[(v2, v2)]:
            return False
        return all(
            count1[(v1, u1)] == count2[(v2, u2)]
            and count1[(u1, v1)] == count2[(u2, v2)]
            for u1, u2 in mapping.items()
        )

    def extend():
        if len(mapping) == n:
            return True
        v1 = pick()
        for v2 in tried(v1):
            if v2 in inverse:
                continue
            expand()
            if consistent(v1, v2):
                mapping[v1], inverse[v2] = v2, v1
                if extend():
                    return True
                del mapping[v1], inverse[v2]
        return False

    try:
        for v1 in range(n):
            if len(candidates[v1]) == 1:
                expand()
                mapping[v1] = candidates[v1][0]
                inverse[candidates[v1][0]] = v1
        found = extend()
    except Exhausted:
        return "budget_exhausted", None, expansions
    if not found:
        return "non_isomorphic", None, expansions
    return "isomorphic", tuple(mapping[v] for v in range(n)), expansions
