"""Digraph isomorphism: explicit-map verification and independent search.

Two entry points cover the two directions of trust.  ``verify_explicit_iso``
sends the vertices of M's right ball through the letter-to-letter
normal-form bijection φ and hands the resulting vertex map to
``validate_certificate``, the one arc check in this module.
``find_isomorphism`` knows nothing about words: it searches for any
isomorphism between two unlabelled digraphs by counting color
refinement (each class split by its arcs to and from one splitter class
at a time, in O((n + m) log n)) plus backtracking in a vertex order
fixed before the search, and
validates any certificate it returns with the same
``validate_certificate``.  Refinement and search read the neighbour
rows ``out``/``inc`` that each
:class:`~cayleyforge.cayley.UnlabelledDigraph` builds once, and the
search reads its forced pairs, class sizes and candidates from the
classes refinement ends with.

``separate_left_graphs`` uses both to locate the smallest ball radius at
which the left Cayley graphs of two systems can be told apart.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from .cayley import (
    CayleyBall,
    UnlabelledDigraph,
    build_ball,
    graph_invariants,
    strip_labels,
)
from .normal_forms import phi
from .presentations import system_m, system_n
from .rewriting import RewritingSystem

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class IsoCertificate:
    """A vertex bijection ``mapping[i] = j`` claimed to preserve arcs
    with multiplicity in both directions."""

    mapping: tuple[int, ...]


def validate_certificate(
    g1: UnlabelledDigraph, g2: UnlabelledDigraph, mapping: tuple[int, ...]
) -> str | None:
    """Check a mapping from scratch; return None if it is a genuine
    isomorphism, otherwise a description of the first defect."""
    if g1.n != g2.n or len(mapping) != g1.n:
        return f"mapping size {len(mapping)} does not match vertex counts"
    hits = [0] * g2.n
    for v in mapping:
        if not 0 <= v < g2.n or hits[v]:
            return "mapping is not a bijection"
        hits[v] = 1
    image = tuple(sorted([(mapping[s], mapping[d]) for s, d in g1.arcs]))
    target = g2.arcs
    if image == target:
        return None
    # Both are sorted, g2.arcs by construction.  Up to the first position
    # where they part, they hold the same arcs, so the least arc there is
    # the least arc whose multiplicity differs.
    k = 0
    while image[k : k + 1] == target[k : k + 1]:
        k += 1
    return f"arc multiset mismatch at {min(image[k : k + 1] + target[k : k + 1])}"


@dataclass(frozen=True)
class IsoReport:
    """Outcome of verifying the explicit normal-form bijection on a ball
    pair; ``witness`` carries the first failing vertex or the certificate
    defect."""

    status: str  # "verified" | "counterexample"
    mapping: tuple[int, ...] | None
    witness: tuple[str, str] | None  # ("vertex-map" | "arcs", detail)
    arcs_checked: int
    vertices_checked: int

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def _counterexample(direction: str, detail: str, vertices: int) -> IsoReport:
    return IsoReport("counterexample", None, (direction, detail), 0, vertices)


def verify_explicit_iso(ball_m: CayleyBall, ball_n: CayleyBall) -> IsoReport:
    """Check that the normal-form bijection is a graph isomorphism
    between two closed right balls of equal radius.

    The vertices of ``ball_m`` are taken as given: each is sent through
    φ letter by letter (:func:`~cayleyforge.normal_forms.phi`), without
    re-proving it irreducible, and must land on a vertex of ``ball_n``,
    or the ``vertex-map`` witness names it.  The resulting mapping is
    then checked by :func:`validate_certificate` on the two stripped
    balls, and its first defect is reported as an ``arcs`` witness.
    """
    for ball in (ball_m, ball_n):
        if ball.side != "right":
            raise ValueError("explicit verification applies to right balls")
        if ball.policy != "closed":
            raise ValueError("explicit verification applies to closed balls")
    if ball_m.radius != ball_n.radius:
        raise ValueError(
            f"radii differ: {ball_m.radius} vs {ball_n.radius}"
        )
    n_vertices = len(ball_m.vertices)
    if n_vertices != len(ball_n.vertices):
        return _counterexample(
            "vertex-map",
            f"vertex counts differ: {n_vertices} vs {len(ball_n.vertices)}",
            n_vertices,
        )
    index_n = {w: i for i, w in enumerate(ball_n.vertices)}
    mapping: list[int] = []
    for word in ball_m.vertices:
        image = phi(word)
        if image not in index_n:
            detail = f"{word!r} maps to {image!r}, not a ball vertex"
            return _counterexample("vertex-map", detail, n_vertices)
        mapping.append(index_n[image])
    del index_n  # freed before the balls are stripped
    g_m, g_n = strip_labels(ball_m), strip_labels(ball_n)
    defect = validate_certificate(g_m, g_n, tuple(mapping))
    if defect is not None:
        return _counterexample("arcs", defect, n_vertices)
    arcs_checked = len(g_m.arcs) + len(g_n.arcs)
    return IsoReport("verified", tuple(mapping), None, arcs_checked, n_vertices)


@dataclass(frozen=True)
class SearchResult:
    """``isomorphic`` with a validated certificate, ``non_isomorphic``,
    or ``budget_exhausted`` when the expansion limit was hit (an
    explicitly indeterminate outcome, never a silent "no")."""

    status: str  # "isomorphic" | "non_isomorphic" | "budget_exhausted"
    certificate: IsoCertificate | None
    expansions: int


def _refine_colors(
    g1: UnlabelledDigraph, g2: UnlabelledDigraph
) -> tuple[list[int], list[int], list[list[int]] | None]:
    """Counting color refinement of the disjoint union of two graphs,
    read in place from their neighbour rows; vertex ``v`` of ``g2`` is
    ``g1.n + v`` in the union.

    Starts from the coloring by (in-degree, out-degree, loops) and ends
    at its coarsest equitable refinement: any two vertices of one class
    have, for every class, as many arcs (with multiplicity) to it and as
    many from it.  That partition is unique, so it does not depend on
    the order of splits, and neither does anything the search reads.

    Classes wait in a queue as splitters (Cardon & Crochemore 1982).
    Taking a class S off it counts, for every vertex with an arc to or
    from S, its arcs into S and its arcs out of S, and splits each class
    by those two counts.  If the split class was queued, all its parts
    are; otherwise all parts but the largest are.  Skipping the largest
    loses nothing: the partition was already equitable towards the
    class, so the counts towards the largest part are the counts towards
    the class less those towards its other parts.  At the start every
    class but the largest is queued, since the degrees are the counts
    towards the whole vertex set.  A split only separates vertices with
    different counts towards a union of classes, which the coarsest
    equitable refinement separates too, and the queue runs empty only
    at an equitable partition, so it ends at exactly that one.

    Each queued part of a class that was not queued is at most half of
    it, so a vertex is counted from at most 1 + log2(n) splitters.  A
    splitter costs its arcs, and the splits it causes cost the vertices
    it counted, so refinement takes O((n + m) log n) for n vertices and
    m arcs (Berkholz, Bonsma & Grohe 2017).  The smallest queued class
    is taken first, so larger ones often split before they are counted:
    on the right balls of M and N of radius 20 that counts 0.72 million
    vertices where taking the last queued class first counts 1.70 million.

    Colors are comparable across the two graphs.  Returns the stable
    colorings and, if every class has as many vertices in each graph (a
    necessary condition for isomorphism), the members of each class in
    ``g2`` in increasing index; otherwise None.  Graphs with different
    numbers of vertices or arcs already differ in their degree classes.
    """
    n1 = g1.n
    out1, inc1, out2, inc2 = g1.out, g1.inc, g2.out, g2.inc
    palette: dict = {}
    colors = [
        palette.setdefault((len(tails), len(heads), heads.count(v)), len(palette))
        for g in (g1, g2)
        for v, (heads, tails) in enumerate(zip(g.out, g.inc))
    ]
    if not colors:
        return [], [], []
    # The vertices, class by class: class c is order[start[c]:end[c]],
    # and vertex x sits at order[where[x]].
    order = sorted(range(len(colors)), key=colors.__getitem__)
    where = [0] * len(order)
    end = [0] * len(palette)
    for p, x in enumerate(order):
        where[x] = p
        end[colors[x]] = p + 1
    start = [0] + end[:-1]
    queued = [True] * len(palette)
    queued[max(palette.values(), key=lambda c: end[c] - start[c])] = False
    # (size when queued, class); a class may shrink while it waits.
    queue = [(end[c] - start[c], c) for c, waiting in enumerate(queued) if waiting]
    heapq.heapify(queue)
    # An arc from S counts `spread` times an arc into S, so one number
    # holds both counts.
    spread = max(len(g1.arcs), len(g2.arcs)) + 1

    while queue:
        splitter = heapq.heappop(queue)[1]
        queued[splitter] = False
        counts: dict[int, int] = {}
        get = counts.get
        for y in order[start[splitter] : end[splitter]]:
            if y < n1:
                for x in inc1[y]:
                    counts[x] = get(x, 0) + 1
                for x in out1[y]:
                    counts[x] = get(x, 0) + spread
            else:
                for x in inc2[y - n1]:
                    x += n1
                    counts[x] = get(x, 0) + 1
                for x in out2[y - n1]:
                    x += n1
                    counts[x] = get(x, 0) + spread
        counted: dict[int, list[int]] = {}
        for x in counts:
            counted.setdefault(colors[x], []).append(x)
        for c, members in counted.items():
            keys = list(map(counts.__getitem__, members))
            if keys.count(keys[0]) == end[c] - start[c]:
                continue  # every member counted, all alike
            parts: dict[int, list[int]] = {}
            for key, x in zip(keys, members):
                parts.setdefault(key, []).append(x)
            groups = list(parts.values())
            if len(members) == end[c] - start[c]:
                groups.remove(max(groups, key=len))
            # Each group moves to the back of the class and takes a new
            # color; the rest keeps c.
            new: list[int] = []
            for group in groups:
                k = len(end)
                new.append(k)
                end.append(end[c])
                for x in group:
                    e = end[c] - 1
                    p, y = where[x], order[e]
                    order[p], where[y] = y, p
                    order[e], where[x] = x, e
                    colors[x] = k
                    end[c] = e
                start.append(end[c])
                queued.append(False)
            if not queued[c]:
                new.append(c)
                new.remove(max(new, key=lambda k: end[k] - start[k]))
            for k in new:
                queued[k] = True
                heapq.heappush(queue, (end[k] - start[k], k))
    del order, where  # the largest lists, freed before the classes are listed
    colors1, colors2 = colors[:n1], colors[n1:]
    members2: list[list[int]] = [[] for _ in end]
    for w, c in enumerate(colors2):
        members2[c].append(w)
    if any(2 * len(m) != e - s for m, s, e in zip(members2, start, end)):
        return colors1, colors2, None
    return colors1, colors2, members2


def find_isomorphism(
    g1: UnlabelledDigraph, g2: UnlabelledDigraph, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Search for any isomorphism between two unlabelled digraphs.

    Every isomorphism maps each vertex to one of the same stable color
    (the search refines both graphs together), and the search reads its
    forced pairs, class sizes and whole-class candidates from the classes
    refinement returns.  Graphs with different numbers of vertices or
    arcs, whose degree classes differ, and two empty graphs are decided
    there, with no expansion.  A class with exactly one
    vertex in each graph is a forced pair, and all forced pairs are
    mapped first, with no arc check among them: the partition is
    equitable, so the arcs from x to the class {y, y'} all end at y,
    those from x' all end at y', and there are as many of each.  By the
    same argument a vertex and a candidate of its class have as many
    arcs to and from the two vertices of each forced pair, so the search
    below checks only the arcs between vertices it mapped itself.

    The other vertices are mapped by backtracking: a vertex may only map
    to a vertex of the same color whose arcs to and from the vertices
    mapped so far match its own, with multiplicity, as read from the
    digraphs' ``out``/``inc`` rows.  A vertex with a mapped neighbour
    takes its candidates from that neighbour's image: the vertices of
    its color with an arc from the image if its own arc comes from the
    neighbour, to it otherwise, without repeats.  The neighbour used
    is the first mapped one among its in-neighbours, then among its
    out-neighbours, each in increasing index.  The class members this
    leaves out lack the arc, so the arc check would reject each of them,
    and the search finds the same isomorphism as when every member of
    the class is a candidate.  A vertex with no mapped neighbour takes
    the whole class.  Candidates are tried in increasing index.

    Each forced pair and each tried candidate costs one expansion, and
    the search stops indeterminately once ``budget`` expansions are
    spent; the result then reports ``budget + 1``, also when the forced
    pairs alone exceed the budget.  The backtracking runs on an explicit
    stack with one frame per vertex on the search path, so its depth is
    bounded by memory, not by the interpreter's recursion limit.  A
    returned certificate has been re-validated arc by arc.

    Deterministic.  The next vertex of ``g1`` to map is an unmapped one
    with a mapped neighbour if there is any, then one from a smaller
    color class, then the one of lower index.  That choice depends only
    on which vertices are mapped, and those are the forced ones and the
    ones chosen before it, so the whole order is fixed before the search
    by one pass over a heap.
    """
    out1, in1, out2, in2 = g1.out, g1.inc, g2.out, g2.inc
    colors1, colors2, members2 = _refine_colors(g1, g2)
    if members2 is None:
        return SearchResult("non_isomorphic", None, 0)

    n = g1.n
    mapping = [members2[c][0] if len(members2[c]) == 1 else -1 for c in colors1]
    expansions = n - mapping.count(-1)
    if expansions > budget:
        return SearchResult("budget_exhausted", None, budget + 1)

    # Keys are (no mapped neighbour, class size, index); forced vertices
    # count as mapped.  A vertex gets a smaller key whenever a neighbour
    # is placed; only the first of its keys to come off the heap counts.
    # Each placed vertex records the neighbour its candidates come from,
    # with the rows of g2 to read at that neighbour's image, and how many
    # arcs it has from and to the vertices the search places before it.
    placed = [image >= 0 for image in mapping]
    heap = [
        (not any(map(placed.__getitem__, out1[v] + in1[v])), len(members2[colors1[v]]), v)
        for v, image in enumerate(mapping)
        if image < 0
    ]
    heapq.heapify(heap)
    order: list[int] = []
    anchors: list[tuple[int, list[list[int]]] | None] = []
    earlier: list[list[int]] = []
    while heap:
        v = heapq.heappop(heap)[2]
        if placed[v]:
            continue
        anchor = None
        arcs_back = []
        for nbrs, rows2 in ((in1[v], out2), (out1[v], in2)):
            count = 0
            for u in nbrs:
                if not placed[u]:
                    heapq.heappush(heap, (0, len(members2[colors1[u]]), u))
                    continue
                if anchor is None:
                    anchor = (u, rows2)
                count += mapping[u] < 0
            arcs_back.append(count)
        placed[v] = True
        order.append(v)
        anchors.append(anchor)
        earlier.append(arcs_back)

    inverse = [-1] * n  # of the vertices the search maps, not the forced

    def candidates(depth: int) -> Iterator[int]:
        color = colors1[order[depth]]
        anchor = anchors[depth]
        if anchor is not None:
            u, rows2 = anchor
            return iter(sorted({w for w in rows2[mapping[u]] if colors2[w] == color}))
        return iter(members2[color])

    # The arcs of v2 to and from vertices the search mapped must match
    # those of order[depth] with multiplicity: each such neighbour's
    # preimage is as often a neighbour of v1, and there are as many.
    # Loops need no check of their own: v1 and v2 share a stable color,
    # and the initial color already counts loops.
    def consistent(depth: int, v2: int) -> bool:
        v1 = order[depth]
        ins, outs = earlier[depth]
        for nbrs1, nbrs2, left in ((in1[v1], in2[v2], ins), (out1[v1], out2[v2], outs)):
            for u in nbrs2:
                w = inverse[u]
                if w >= 0:
                    if nbrs1.count(w) != nbrs2.count(u):
                        return False
                    left -= 1
            if left:
                return False
        return True

    # One iterator of untried candidates in g2 per depth k, for vertex
    # order[k] of g1.  The top one is re-entered either fresh or after
    # the next depth ran out of candidates; in the latter case its
    # vertex's assignment is undone.
    stack = [candidates(0)] if order else []
    while stack:
        depth = len(stack) - 1
        v1 = order[depth]
        if mapping[v1] != -1:
            inverse[mapping[v1]] = -1
            mapping[v1] = -1
        for v2 in stack[-1]:
            if inverse[v2] != -1:
                continue
            expansions += 1
            if expansions > budget:
                return SearchResult("budget_exhausted", None, expansions)
            if consistent(depth, v2):
                mapping[v1] = v2
                inverse[v2] = v1
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            break
        stack.append(candidates(len(stack)))

    if order and not stack:
        return SearchResult("non_isomorphic", None, expansions)
    certificate = IsoCertificate(tuple(mapping))
    del members2  # the classes, freed before the arc check
    defect = validate_certificate(g1, g2, certificate.mapping)
    if defect is not None:
        raise RuntimeError(f"search produced an invalid certificate: {defect}")
    return SearchResult("isomorphic", certificate, expansions)


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of comparing left balls radius by radius.

    A separation is a statement about the balls themselves: at radius
    ``radius`` the two left balls are non-isomorphic finite digraphs,
    witnessed by ``invariant``.
    """

    separated: bool
    radius: int | None
    invariant: str | None
    max_radius: int
    lines: tuple[str, ...]


def separate_left_graphs(
    max_radius: int,
    system_a: RewritingSystem | None = None,
    system_b: RewritingSystem | None = None,
) -> SeparationReport:
    """Find the smallest radius at which the left balls of two systems
    (the two builtins by default) are provably non-isomorphic.

    Fingerprints are compared first; if they tie, the full search
    decides.  A search that spends ``DEFAULT_BUDGET`` expansions leaves
    the radius undecided and is reported as such.
    """
    if max_radius < 1:
        raise ValueError("max_radius must be at least 1")
    sys_a = system_a if system_a is not None else system_m()
    sys_b = system_b if system_b is not None else system_n()
    lines: list[str] = []
    for radius in range(1, max_radius + 1):
        g_a = strip_labels(build_ball(sys_a, "left", radius, "closed"))
        g_b = strip_labels(build_ball(sys_b, "left", radius, "closed"))
        difference = graph_invariants(g_a).first_difference(graph_invariants(g_b))
        if difference is not None:
            lines.append(f"radius {radius}: separated, {difference}s differ")
            return SeparationReport(True, radius, difference, max_radius, tuple(lines))
        result = find_isomorphism(g_a, g_b, DEFAULT_BUDGET)
        if result.status == "non_isomorphic":
            invariant = "exhaustive search (no isomorphism exists)"
            lines.append(f"radius {radius}: separated by {invariant}")
            return SeparationReport(True, radius, invariant, max_radius, tuple(lines))
        if result.status == "budget_exhausted":
            lines.append(
                f"radius {radius}: undecided, search budget exhausted after "
                f"{result.expansions} expansions"
            )
        else:
            lines.append(f"radius {radius}: not separated (balls are isomorphic)")
    return SeparationReport(False, None, None, max_radius, tuple(lines))
