"""The refinement and the search against the naive references in
``oracles.py`` on random digraphs with loops and parallel arcs; the
refinement also on Cayley balls and a hub path."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleyforge import UnlabelledDigraph, build_ball, find_isomorphism, strip_labels
from cayleyforge.isomorphism import _refine_colors

import oracles
from strategies import hub_path

MAX_VERTICES = 12


@st.composite
def digraphs(draw, n, kind):
    """Arbitrary arcs; or a relabelled circulant with two shifts, where
    every vertex has in- and out-degree 2, refinement keeps one class and
    the search has to backtrack; or a 2-lift of a random digraph on n // 2
    vertices plus a few arbitrary arcs, with classes of several sizes."""
    if not n:
        return 0, ()
    vertex = st.integers(0, n - 1)
    if kind == "circulant":
        order = draw(st.permutations(range(n)))
        shifts = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
        arcs = [(order[i], order[(i + k) % n]) for k in shifts for i in range(n)]
    elif kind == "lift":
        # vertex v of the base has copies 2v and 2v + 1; each base arc
        # joins the copies straight or crossed
        arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
        if n > 1:
            base = st.integers(0, n // 2 - 1)
            lifted = st.tuples(base, base, st.integers(0, 1))
            for s, d, crossed in draw(st.lists(lifted, max_size=n)):
                arcs += [(2 * s, 2 * d + crossed), (2 * s + 1, 2 * d + 1 - crossed)]
    else:
        arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, tuple(sorted(arcs))


@st.composite
def digraph_pairs(draw):
    n = draw(st.integers(0, MAX_VERTICES))
    kind = draw(st.sampled_from(["arbitrary", "circulant", "lift"]))
    first = draw(digraphs(n, kind))
    how = draw(st.sampled_from(["relabelled", "tampered", "independent"]))
    if how == "independent":
        return first, draw(digraphs(n, kind))
    perm = draw(st.permutations(range(n)))
    arcs = [(perm[s], perm[d]) for s, d in first[1]]
    if how == "tampered" and arcs:
        vertex = st.integers(0, n - 1)
        arcs[draw(st.integers(0, len(arcs) - 1))] = draw(st.tuples(vertex, vertex))
    return first, (n, tuple(sorted(arcs)))


def _partition(colors1, colors2):
    classes = {}
    for k, colors in enumerate((colors1, colors2)):
        for v, color in enumerate(colors):
            classes.setdefault(color, set()).add((k, v))
    return {frozenset(members) for members in classes.values()}


@settings(max_examples=300, deadline=None)
@given(digraph_pairs())
def test_refinement_matches_synchronous_rounds(pair):
    g1, g2 = (UnlabelledDigraph(*g) for g in pair)
    colors1, colors2, _ = _refine_colors(g1, g2)
    assert _partition(colors1, colors2) == oracles.refine_by_rounds(list(pair))


# Once vertex 2 is mapped, its neighbours 1 (class of size 4) and 3
# (class of size 2) are both touched and 3 must come first; taking the
# lower index first costs one more expansion here, a case random draws
# seldom produce.
SMALLER_CLASS_FIRST = (
    (6, ((2, 1), (2, 3), (2, 5), (3, 0), (3, 2), (3, 4))),
    (6, ((2, 3), (2, 4), (2, 5), (5, 0), (5, 1), (5, 2))),
)

# Refinement keeps one class and only exhausting the search shows that
# no isomorphism exists.
SIX_CYCLE_AND_TRIANGLES = (
    (6, tuple((i, (i + 1) % 6) for i in range(6))),
    (6, tuple((i, 3 * (i // 3) + (i + 1) % 3) for i in range(6))),
)

# One class: every vertex after the first takes its candidates from the
# image of a mapped neighbour.
RELABELLING = (3, 6, 0, 5, 2, 7, 4, 1)
CIRCULANT_AND_RELABELLING = tuple(
    (8, tuple(sorted((p[i], p[(i + k) % 8]) for k in (1, 3) for i in range(8))))
    for p in (range(8), RELABELLING)
)

# A 2-lift plus three arcs, against a relabelling: two forced pairs and
# three classes of size 2, where some candidates fail the arc check.
# With a budget of 1 the forced pairs alone exhaust it.
LIFT_WITH_FORCED_PAIRS = (
    (8, ((0, 4), (0, 7), (1, 5), (1, 6), (2, 4), (2, 6), (3, 5), (3, 7),
         (4, 5), (5, 4), (5, 5))),
    (8, ((0, 4), (0, 5), (1, 4), (1, 6), (2, 5), (2, 7), (3, 6), (3, 7),
         (5, 6), (6, 5), (6, 6))),
)


@settings(max_examples=300, deadline=None)
@given(digraph_pairs(), st.one_of(st.integers(0, 40), st.just(100_000)))
@example(SMALLER_CLASS_FIRST, 100_000)
@example(SIX_CYCLE_AND_TRIANGLES, 100_000)
@example(CIRCULANT_AND_RELABELLING, 100_000)
@example(LIFT_WITH_FORCED_PAIRS, 100_000)
@example(LIFT_WITH_FORCED_PAIRS, 1)
def test_search_matches_linear_scan_backtracking(pair, budget):
    g1, g2 = (UnlabelledDigraph(*g) for g in pair)
    result = find_isomorphism(g1, g2, budget)
    mapping = result.certificate.mapping if result.certificate else None
    assert (result.status, mapping, result.expansions) == (
        oracles.backtrack_linear_scan(pair[0], pair[1], budget)
    )


BALLS = [("right", radius) for radius in range(8)] + [
    ("left", radius) for radius in range(6)
]


@pytest.mark.parametrize("side, radius", BALLS)
def test_refinement_matches_synchronous_rounds_on_balls(sys_m, sys_n, side, radius):
    """The drawn graphs above have at most 12 vertices; balls need many
    rounds and leave classes of every size."""
    g1, g2 = (strip_labels(build_ball(s, side, radius, "closed")) for s in (sys_m, sys_n))
    colors1, colors2, _ = _refine_colors(g1, g2)
    pair = [(g1.n, g1.arcs), (g2.n, g2.arcs)]
    assert _partition(colors1, colors2) == oracles.refine_by_rounds(pair)


def test_refinement_matches_synchronous_rounds_on_a_hub_path():
    n, arcs = hub_path(50)
    perm = list(range(n))
    random.Random(9).shuffle(perm)
    pair = [(n, arcs), (n, tuple(sorted((perm[s], perm[d]) for s, d in arcs)))]
    colors1, colors2, _ = _refine_colors(*(UnlabelledDigraph(*g) for g in pair))
    assert _partition(colors1, colors2) == oracles.refine_by_rounds(pair)
