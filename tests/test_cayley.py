"""Ball construction, label stripping, fingerprints and exports."""

import json
import re
from collections import Counter, deque

import pytest
from hypothesis import given, strategies as st

from cayleyforge import (
    CayleyBall,
    UnlabelledDigraph,
    build_ball,
    export_dot,
    export_json,
    graph_invariants,
    normal_form,
    strip_labels,
)
from cayleyforge.rewriting import IncompleteSystemError

import oracles


def test_ball_radius_zero(sys_m):
    ball = build_ball(sys_m, "right", 0, "closed")
    assert ball.vertices == ("",)
    assert ball.edges == ()


def test_ball_vertex_counts(sys_m, sys_n):
    assert len(build_ball(sys_m, "right", 2, "closed").vertices) == 7
    assert len(build_ball(sys_n, "right", 5, "closed").vertices) == 57
    # cross-checked against the enumerate-and-filter oracle
    assert len(oracles.irreducible_words_by_filter(sys_n, 1, 5)) == 57


def test_ball_vertex_zero_is_identity(sys_m):
    ball = build_ball(sys_m, "right", 3, "closed")
    assert ball.vertices[0] == ""
    assert all(len(w) <= 3 for w in ball.vertices)


def test_ball_requires_certificate():
    from cayleyforge import RewriteRule, RewritingSystem

    bare = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"),))
    with pytest.raises(IncompleteSystemError):
        build_ball(bare, "right", 2, "closed")


def test_frontier_policy_gives_total_out_degree(sys_m, sys_n):
    for system in (sys_m, sys_n):
        ball = build_ball(system, "right", 5, "with_frontier")
        outgoing = Counter(src for src, _, _ in ball.edges)
        outgoing.update(src for src, _, _ in ball.frontier)
        assert all(
            outgoing[v] == len(system.alphabet) for v in range(len(ball.vertices))
        )
        assert all(len(target) == 6 for _, _, target in ball.frontier)


@pytest.mark.parametrize("side", ["right", "left"])
def test_ball_targets_are_reduced_products(sys_m, sys_n, side):
    # every edge and frontier target is the normal form of its product,
    # also where the ball takes an irreducible product as it is
    for system in (sys_m, sys_n):
        ball = build_ball(system, side, 7, "with_frontier")
        found = [(src, g, ball.vertices[dst]) for src, dst, g in ball.edges]
        found += ball.frontier
        assert sorted(found) == sorted(
            (src, g, normal_form(system, v + g if side == "right" else g + v))
            for src, v in enumerate(ball.vertices)
            for g in system.alphabet
        )
        assert build_ball(system, side, 7, "closed").edges == ball.edges


def test_closed_ball_drops_frontier(sys_m):
    closed = build_ball(sys_m, "right", 4, "closed")
    assert closed.frontier == ()


def test_distance_equals_length(sys_m, sys_n):
    for system in (sys_m, sys_n):
        ball = build_ball(system, "right", 8, "with_frontier")
        adjacency = [[] for _ in ball.vertices]
        for src, dst, _ in ball.edges:
            adjacency[src].append(dst)
        dist = {0: 0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        for i, word in enumerate(ball.vertices):
            assert dist[i] == len(word)


def test_build_is_deterministic(sys_m):
    first = build_ball(sys_m, "left", 6, "with_frontier")
    second = build_ball(sys_m, "left", 6, "with_frontier")
    assert export_json(first) == export_json(second)
    assert export_dot(first) == export_dot(second)


M_TRANSITIONS = {
    ("NFM1", "a"): "NFM2",
    ("NFM1", "b"): "NFM1",
    ("NFM2", "a"): "NFM2",
    ("NFM2", "b"): "NFM3",
    ("NFM3", "a"): "NFM2",
    ("NFM3", "b"): "NFM3",
}


def n_expected_kind(source, generator):
    kind = oracles.n_kind(source)
    if kind == "NFN1":
        return "NFN2" if generator == "c" else "NFN1"
    if kind == "NFN2":
        return "NFN2" if generator == "c" else "NFN3"
    r = len(oracles.N_NORMAL_FORM.fullmatch(source)["tail"]) % 4
    if generator == "c":
        return "NFN3" if r == 3 else "NFN2"
    return "NFN2" if r == 3 else "NFN3"


def test_right_edges_respect_class_transitions_m(sys_m):
    ball = build_ball(sys_m, "right", 7, "with_frontier")
    arrows = [
        (ball.vertices[src], g, ball.vertices[dst]) for src, dst, g in ball.edges
    ] + [(ball.vertices[src], g, target) for src, g, target in ball.frontier]
    for source, generator, target in arrows:
        expected = M_TRANSITIONS[(oracles.m_kind(source), generator)]
        assert oracles.m_kind(target) == expected


def test_right_edges_respect_class_transitions_n(sys_n):
    ball = build_ball(sys_n, "right", 7, "with_frontier")
    arrows = [
        (ball.vertices[src], g, ball.vertices[dst]) for src, dst, g in ball.edges
    ] + [(ball.vertices[src], g, target) for src, g, target in ball.frontier]
    for source, generator, target in arrows:
        expected = n_expected_kind(source, generator)
        assert oracles.n_kind(target) == expected


def test_strip_labels_keeps_multiplicity():
    ball = CayleyBall(
        side="right",
        radius=1,
        policy="closed",
        vertices=("", "a"),
        edges=((0, 1, "a"), (0, 1, "b")),
    )
    graph = strip_labels(ball)
    assert graph.n == 2
    assert Counter(graph.arcs) == Counter({(0, 1): 2})


def test_strip_labels_counts(sys_m):
    ball = build_ball(sys_m, "right", 5, "closed")
    graph = strip_labels(ball)
    assert graph.n == len(ball.vertices)
    assert len(graph.arcs) == len(ball.edges)
    assert len(set(graph.arcs)) == len(graph.arcs)  # no parallel arcs arise
    trivial = strip_labels(build_ball(sys_m, "right", 0, "closed"))
    assert (trivial.n, trivial.arcs) == (1, ())


def test_graph_invariants():
    single = graph_invariants(UnlabelledDigraph(1, ()))
    assert single.vertex_count == 1
    assert single.arc_count == 0
    assert single.degree_pairs == ((0, 0),)
    two_cycle = graph_invariants(UnlabelledDigraph(2, ((0, 1), (1, 0))))
    parallel = graph_invariants(UnlabelledDigraph(2, ((0, 1), (0, 1))))
    assert two_cycle.first_difference(parallel) == "in/out degree-pair multiset"
    assert two_cycle.first_difference(two_cycle) is None


def test_fingerprints_match_for_builtin_right_balls(sys_m, sys_n):
    gm = strip_labels(build_ball(sys_m, "right", 5, "closed"))
    gn = strip_labels(build_ball(sys_n, "right", 5, "closed"))
    assert graph_invariants(gm) == graph_invariants(gn)


def test_digraph_rejects_out_of_range_arcs():
    with pytest.raises(ValueError):
        UnlabelledDigraph(2, ((0, 2),))
    for arc in ((2, 0), (-1, 0), (0, -1), (1, 5)):
        with pytest.raises(ValueError, match=re.escape(f"arc {arc} out of range for n=2")):
            UnlabelledDigraph(2, ((1, 1), arc))
    with pytest.raises(ValueError, match=re.escape("vertex count n=-1 is negative")):
        UnlabelledDigraph(-1, ())


def test_digraph_adjacency_follows_the_arcs():
    arcs = ((0, 0), (0, 1), (2, 1), (0, 1), (1, 0), (0, 0))
    g = UnlabelledDigraph(3, arcs)
    assert g.out == [[0, 0, 1, 1], [0], [1]]
    assert g.inc == [[0, 0, 1], [0, 0, 2], []]
    for v in range(g.n):
        assert Counter(g.out[v]) == Counter(d for s, d in arcs if s == v)
        assert Counter(g.inc[v]) == Counter(s for s, d in arcs if d == v)


def test_digraph_equality_follows_the_arc_multiset():
    first = UnlabelledDigraph(2, ((1, 0), (0, 1), (1, 0)))
    second = UnlabelledDigraph(2, ((1, 0), (1, 0), (0, 1)))
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert repr(first) == "UnlabelledDigraph(n=2, arcs=((0, 1), (1, 0), (1, 0)))"
    assert first != UnlabelledDigraph(2, ((1, 0), (0, 1)))


def test_strip_labels_is_built_once_per_ball(sys_m):
    ball = build_ball(sys_m, "right", 4, "closed")
    assert strip_labels(ball) is strip_labels(ball)


def test_digraph_adjacency_stays_out_of_equality_hash_and_repr():
    first = UnlabelledDigraph(2, ((0, 1), (1, 1)))
    second = UnlabelledDigraph(2, ((0, 1), (1, 1)))
    assert first == second
    assert hash(first) == hash(second)
    assert first != UnlabelledDigraph(2, ((0, 1),))
    assert repr(first) == "UnlabelledDigraph(n=2, arcs=((0, 1), (1, 1)))"
    with pytest.raises(TypeError):
        UnlabelledDigraph(1, (), out=[[]])


def test_dot_export(sys_m):
    dot = export_dot(build_ball(sys_m, "right", 0, "closed"))
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 1
    dot2 = export_dot(build_ball(sys_m, "right", 2, "closed"))
    node_lines2 = [l for l in dot2.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines2) == 7


def test_dot_export_builtin_is_pinned(sys_n):
    dot = export_dot(build_ball(sys_n, "left", 1, "with_frontier"))
    assert dot == """digraph {
  v0 [label="ε"];
  v1 [label="c"];
  v2 [label="d"];
  v0 -> v1 [label="c"];
  v0 -> v2 [label="d"];
  f0 [label="cc", style=dashed];
  v1 -> f0 [label="c", style=dashed];
  f1 [label="dc", style=dashed];
  v1 -> f1 [label="d", style=dashed];
  f2 [label="cd", style=dashed];
  v2 -> f2 [label="c", style=dashed];
  f3 [label="dd", style=dashed];
  v2 -> f3 [label="d", style=dashed];
}
"""


def test_export_rejects_non_balls():
    for export in (export_dot, export_json):
        for obj in ("nonsense", UnlabelledDigraph(2, ((0, 1),))):
            with pytest.raises(TypeError, match="cannot export"):
                export(obj)


def test_json_roundtrip(sys_m, sys_n):
    for system, side, policy in (
        (sys_m, "right", "closed"),
        (sys_n, "right", "with_frontier"),
        (sys_m, "left", "with_frontier"),
    ):
        ball = build_ball(system, side, 4, policy)
        assert json.loads(export_json(ball)) == {
            "side": ball.side,
            "radius": ball.radius,
            "policy": ball.policy,
            "vertices": list(ball.vertices),
            "edges": [list(edge) for edge in ball.edges],
            "frontier": [list(arc) for arc in ball.frontier],
        }


@st.composite
def labelled_arcs(draw, max_vertices=8):
    """A vertex count and a list of labelled arcs on it, loops and
    parallel arcs included, in any order."""
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    arc = st.tuples(vertex, vertex, st.sampled_from("ab"))
    return n, draw(st.lists(arc, max_size=3 * n))


def _labelled_ball(n, edges):
    return CayleyBall("right", 0, "closed", tuple(str(v) for v in range(n)), tuple(edges))


@given(labelled_arcs())
def test_strip_labels_matches_the_oracle(drawn):
    n, edges = drawn
    graph = strip_labels(_labelled_ball(n, edges))
    assert (graph.n, list(graph.arcs)) == oracles.strip_by_hand(range(n), edges)


@given(labelled_arcs())
def test_graph_invariants_match_the_oracle(drawn):
    n, edges = drawn
    arcs = [(src, dst) for src, dst, _ in edges]
    fingerprint = graph_invariants(UnlabelledDigraph(n, tuple(arcs)))
    assert (
        fingerprint.vertex_count,
        fingerprint.arc_count,
        fingerprint.degree_pairs,
        fingerprint.neighbor_profiles,
    ) == oracles.fingerprint_by_hand(n, arcs)


@pytest.mark.parametrize("policy", ["closed", "with_frontier"])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", ["M", "N"])
def test_builtin_balls_strip_and_fingerprint_as_the_oracle(sys_m, sys_n, name, side, policy):
    system = sys_m if name == "M" else sys_n
    for radius in range(11):
        ball = build_ball(system, side, radius, policy)
        graph = strip_labels(ball)
        n, arcs = oracles.strip_by_hand(ball.vertices, ball.edges)
        assert (graph.n, list(graph.arcs)) == (n, arcs)
        fingerprint = graph_invariants(graph)
        assert (
            fingerprint.vertex_count,
            fingerprint.arc_count,
            fingerprint.degree_pairs,
            fingerprint.neighbor_profiles,
        ) == oracles.fingerprint_by_hand(n, arcs)
