"""Explicit-map verification, the independent search, and left-ball
separation."""

import dataclasses
import hashlib
import json
import random
import sys
import time

import pytest

from cayleyforge import (
    CayleyBall,
    IsoCertificate,
    UnlabelledDigraph,
    build_ball,
    export_json,
    find_isomorphism,
    graph_invariants,
    separate_left_graphs,
    strip_labels,
    validate_certificate,
    verify_explicit_iso,
)
from cayleyforge import isomorphism, normal_forms, rewriting

import oracles
from strategies import hub_path

# Discovered by the search below and frozen as a regression constant:
# the left balls of the two builtins first become non-isomorphic here.
LEFT_SEPARATION_RADIUS = 4


def _right_balls(sys_m, sys_n, radius):
    return (
        build_ball(sys_m, "right", radius, "closed"),
        build_ball(sys_n, "right", radius, "closed"),
    )


def test_verify_radius_zero(sys_m, sys_n):
    report = verify_explicit_iso(*_right_balls(sys_m, sys_n, 0))
    assert report.verified
    assert report.vertices_checked == 1
    assert report.arcs_checked == 0


def test_verify_radius_five(sys_m, sys_n):
    report = verify_explicit_iso(*_right_balls(sys_m, sys_n, 5))
    assert report.verified
    assert report.vertices_checked == 57
    assert report.mapping is not None


def test_verify_maps_concrete_edge(sys_m, sys_n):
    ball_m, ball_n = _right_balls(sys_m, sys_n, 4)
    assert normal_forms.phi("abb") == "cdd"
    assert normal_forms.phi("aba") == "cdc"
    index_m = {w: i for i, w in enumerate(ball_m.vertices)}
    index_n = {w: i for i, w in enumerate(ball_n.vertices)}
    assert (index_m["abb"], index_m["aba"]) in {
        (s, d) for s, d, _ in ball_m.edges
    }
    assert (index_n["cdd"], index_n["cdc"]) in {
        (s, d) for s, d, _ in ball_n.edges
    }


def _reload(text, alphabet):
    """A closed ball read back from its JSON export: the table is filled
    in from the edge list, the rest taken as it was written."""
    payload = json.loads(text)
    width = len(alphabet)
    targets = [-1] * (width * len(payload["vertices"]))
    for src, dst, g in payload["edges"]:
        targets[src * width + alphabet.index(g)] = dst
    return CayleyBall(
        payload["side"], payload["radius"], payload["policy"],
        tuple(payload["vertices"]), alphabet, tuple(targets),
    )


def test_verify_accepts_json_loaded_balls(sys_m, sys_n):
    ball_m, ball_n = _right_balls(sys_m, sys_n, 3)
    reloaded_m = _reload(export_json(ball_m), sys_m.alphabet)
    reloaded_n = _reload(export_json(ball_n), sys_n.alphabet)
    assert (reloaded_m, reloaded_n) == (ball_m, ball_n)
    assert verify_explicit_iso(reloaded_m, reloaded_n).verified


def test_verify_rejects_mismatched_inputs(sys_m, sys_n):
    ball_m, _ = _right_balls(sys_m, sys_n, 2)
    other = build_ball(sys_n, "right", 3, "closed")
    with pytest.raises(ValueError, match="radii differ"):
        verify_explicit_iso(ball_m, other)
    left = build_ball(sys_n, "left", 2, "closed")
    with pytest.raises(ValueError, match="right balls"):
        verify_explicit_iso(ball_m, left)
    frontier = build_ball(sys_n, "right", 2, "with_frontier")
    with pytest.raises(ValueError, match="closed balls"):
        verify_explicit_iso(ball_m, frontier)


def test_verify_detects_a_broken_pair(sys_m, sys_n):
    ball_m = build_ball(sys_m, "right", 3, "closed")
    ball_n = build_ball(sys_n, "right", 3, "closed")
    # drop one arc from the N ball, the first edge of vertex 0: the
    # vertex map still holds, and the certificate check names the arc
    # whose image has no partner
    assert ball_n.edges[0][0] == 0 and ball_n.edges[0][2] == ball_n.alphabet[0]
    broken = dataclasses.replace(ball_n, targets=(-1,) + ball_n.targets[1:])
    assert broken.edges == ball_n.edges[1:]
    report = verify_explicit_iso(ball_m, broken)
    assert not report.verified
    assert report.mapping is None
    assert report.witness == (
        "arcs", f"arc multiset mismatch at {ball_n.edges[0][:2]}"
    )


def test_verify_detects_a_duplicated_arc(sys_m, sys_n):
    ball_m, ball_n = _right_balls(sys_m, sys_n, 3)
    # one extra copy of an N arc, at the first vertex with one product
    # outside the ball and one inside: every M arc still has its image,
    # and the certificate check names the surplus arc
    width = len(ball_n.alphabet)
    rows = [ball_n.targets[v * width : v * width + width] for v in range(len(ball_n.vertices))]
    src = next(v for v, row in enumerate(rows) if min(row) < 0 <= max(row))
    dst = max(rows[src])
    targets = list(ball_n.targets)
    targets[src * width + rows[src].index(-1)] = dst
    padded = dataclasses.replace(ball_n, targets=tuple(targets))
    assert len(padded.edges) == len(ball_n.edges) + 1
    report = verify_explicit_iso(ball_m, padded)
    assert not report.verified
    assert report.witness == ("arcs", f"arc multiset mismatch at {(src, dst)}")


def test_verify_leaves_each_ball_stripped(sys_m, sys_n):
    """The digraphs that verification checks stay with the balls, so a
    search after it strips neither ball again."""
    ball_m, ball_n = _right_balls(sys_m, sys_n, 4)
    assert "_digraph" not in vars(ball_m) and "_digraph" not in vars(ball_n)
    assert verify_explicit_iso(ball_m, ball_n).verified
    assert vars(ball_m)["_digraph"] is strip_labels(ball_m)
    assert vars(ball_n)["_digraph"] is strip_labels(ball_n)


def test_certificate_bijection_and_witness():
    path = UnlabelledDigraph(3, ((0, 1), (1, 2)))
    for mapping in ((0, 0, 1), (0, 1, 3), (0, -1, 2), (2, 1, 2)):
        assert validate_certificate(path, path, mapping) == "mapping is not a bijection"
    assert validate_certificate(path, path, (0, 1)).startswith("mapping size 2")
    # the witness is the least arc whose multiplicity differs, whichever
    # graph holds more copies of it
    assert validate_certificate(path, path, (1, 0, 2)) == "arc multiset mismatch at (0, 1)"
    doubled = UnlabelledDigraph(3, ((1, 2), (0, 1), (1, 2)))
    fewer = UnlabelledDigraph(3, ((0, 1), (1, 2), (2, 2)))
    assert validate_certificate(fewer, doubled, (0, 1, 2)) == "arc multiset mismatch at (1, 2)"
    assert validate_certificate(doubled, fewer, (0, 1, 2)) == "arc multiset mismatch at (1, 2)"
    longer = UnlabelledDigraph(3, ((0, 1), (1, 2), (2, 0), (2, 1)))
    cycle = UnlabelledDigraph(3, ((2, 0), (0, 1), (1, 2)))
    assert validate_certificate(longer, cycle, (0, 1, 2)) == "arc multiset mismatch at (2, 1)"
    assert validate_certificate(cycle, cycle, (1, 2, 0)) is None


def test_verify_rejects_a_period_three_tail(sys_m, sys_n, monkeypatch):
    # negative control: with ddc in place of dddc, phi sends abbb to the
    # reducible cddc, which is no vertex of the N ball
    ball_m, ball_n = _right_balls(sys_m, sys_n, 6)
    monkeypatch.setattr(normal_forms, "_N_TAIL", "ddc")
    report = verify_explicit_iso(ball_m, ball_n)
    assert report.status == "counterexample"
    assert report.witness == (
        "vertex-map", "'abbb' maps to 'cddc', not a ball vertex"
    )


def test_verify_takes_ball_vertices_as_given(sys_m, sys_n, monkeypatch):
    ball_m, ball_n = _right_balls(sys_m, sys_n, 9)

    def forbidden(*args):
        raise AssertionError("the ball path must not reduce or test a word")

    for name in ("_first_match", "_reduce", "is_irreducible"):
        monkeypatch.setattr(rewriting, name, forbidden)
    report = verify_explicit_iso(ball_m, ball_n)
    assert report.verified
    assert report.vertices_checked == len(ball_m.vertices)
    assert report.arcs_checked == len(ball_m.edges) + len(ball_n.edges)


def test_find_isomorphism_trivial_graphs():
    single = UnlabelledDigraph(1, ())
    result = find_isomorphism(single, single)
    assert result.status == "isomorphic"
    assert result.certificate.mapping == (0,)


def test_find_isomorphism_cycle_vs_path():
    """Refinement alone decides graphs that differ in their numbers of
    vertices or arcs, and two empty graphs."""
    cycle = UnlabelledDigraph(3, ((0, 1), (1, 2), (2, 0)))
    path = UnlabelledDigraph(3, ((0, 1), (1, 2)))
    arc2, arc3 = UnlabelledDigraph(2, ((0, 1),)), UnlabelledDigraph(3, ((0, 1),))
    for g1, g2 in ((cycle, path), (path, cycle), (arc2, arc3), (arc3, arc2)):
        result = find_isomorphism(g1, g2)
        assert (result.status, result.certificate, result.expansions) == (
            "non_isomorphic", None, 0,
        )
    empty = UnlabelledDigraph(0, ())
    result = find_isomorphism(empty, empty)
    assert (result.status, result.certificate, result.expansions) == (
        "isomorphic", IsoCertificate(()), 0,
    )


def test_find_isomorphism_on_right_balls(sys_m, sys_n):
    gm = strip_labels(build_ball(sys_m, "right", 4, "closed"))
    gn = strip_labels(build_ball(sys_n, "right", 4, "closed"))
    result = find_isomorphism(gm, gn)
    assert result.status == "isomorphic"
    assert validate_certificate(gm, gn, result.certificate.mapping) is None


def test_search_certificate_relates_to_explicit_map(sys_m, sys_n):
    # certificate = explicit map composed with an automorphism of the
    # target ball, so certificate o inverse(explicit) fixes the N ball
    ball_m, ball_n = _right_balls(sys_m, sys_n, 4)
    gm, gn = strip_labels(ball_m), strip_labels(ball_n)
    explicit = verify_explicit_iso(ball_m, ball_n).mapping
    found = find_isomorphism(gm, gn).certificate.mapping
    inverse_explicit = [0] * len(explicit)
    for src, dst in enumerate(explicit):
        inverse_explicit[dst] = src
    automorphism = tuple(found[inverse_explicit[v]] for v in range(gn.n))
    assert validate_certificate(gn, gn, automorphism) is None


def test_explicit_and_search_agree_across_radii(sys_m, sys_n):
    for radius in range(2, 7):
        ball_m, ball_n = _right_balls(sys_m, sys_n, radius)
        assert verify_explicit_iso(ball_m, ball_n).verified
        result = find_isomorphism(strip_labels(ball_m), strip_labels(ball_n))
        assert result.status == "isomorphic"


def test_budget_exhaustion_is_explicit():
    arcs = tuple((i, (i + 1) % 8) for i in range(8)) + tuple(
        (i, (i + 3) % 8) for i in range(8)
    )
    graph = UnlabelledDigraph(8, arcs)
    result = find_isomorphism(graph, graph, budget=2)
    assert result.status == "budget_exhausted"
    assert result.certificate is None
    assert result.expansions == 3


def test_search_does_not_depend_on_the_recursion_limit(sys_m, sys_n, monkeypatch):
    gm, gn = (strip_labels(ball) for ball in _right_balls(sys_m, sys_n, 10))
    assert gm.n == 905

    def refuse(limit):
        raise AssertionError("the search must not change the recursion limit")

    old_limit = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit
    set_limit(400)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        result = find_isomorphism(gm, gn)
    finally:
        set_limit(old_limit)
    assert result.status == "isomorphic"
    assert result.expansions == gm.n


def _random_digraph(rng, n, arc_count):
    arcs = set()
    while len(arcs) < arc_count:
        arcs.add((rng.randrange(n), rng.randrange(n)))
    return UnlabelledDigraph(n, tuple(sorted(arcs)))


# Frozen regression constants: (mapping, expansions) of each planted
# pair below, which pin the order in which the search tries candidates.
PLANTED_RESULTS = [
    ((7, 6, 3, 11, 5, 10, 0, 1, 8, 4, 9, 2), 12),
    ((11, 9, 4, 3, 6, 7, 2, 5, 8, 1, 10, 0), 12),
    ((1, 7, 0, 11, 9, 3, 5, 10, 6, 2, 4, 8), 12),
    ((8, 11, 9, 6, 10, 0, 4, 5, 1, 2, 7, 3), 12),
    ((9, 0, 3, 7, 6, 2, 11, 5, 8, 4, 1, 10), 12),
    ((10, 11, 4, 0, 8, 5, 7, 2, 9, 3, 6, 1), 12),
    ((11, 3, 10, 2, 0, 1, 7, 6, 8, 4, 5, 9), 12),
    ((6, 0, 9, 1, 2, 4, 5, 3, 11, 10, 8, 7), 12),
    ((1, 11, 3, 9, 5, 4, 2, 6, 0, 10, 7, 8), 12),
    ((11, 10, 3, 7, 1, 5, 9, 0, 2, 4, 6, 8), 12),
]

# The same for 2-in 2-out graphs, on which refinement leaves one color
# class; the second pair needs real backtracks (expansions > n).
REGULAR_RESULTS = [
    ((9, 4, 8, 1, 7, 0, 5, 6, 2, 3), 10),
    ((1, 0, 5, 3, 7, 2, 9, 8, 6, 4), 23),
    ((9, 5, 8, 4, 3, 7, 0, 2, 6, 1), 10),
    ((3, 6, 1, 8, 7, 0, 5, 2, 9, 4), 10),
    ((2, 7, 8, 1, 4, 3, 9, 5, 6, 0), 10),
    ((3, 0, 1, 7, 9, 4, 6, 8, 5, 2), 10),
]


def _shuffled(rng, graph):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return UnlabelledDigraph(
        graph.n, tuple(sorted((perm[s], perm[d]) for s, d in graph.arcs))
    )


def _planted_results(rng, make_graph, count):
    results = []
    for _ in range(count):
        graph = make_graph()
        shuffled = _shuffled(rng, graph)
        result = find_isomorphism(graph, shuffled)
        assert result.status == "isomorphic"
        assert validate_certificate(graph, shuffled, result.certificate.mapping) is None
        results.append((result.certificate.mapping, result.expansions))
    return results


def test_planted_isomorphism_is_found():
    rng = random.Random(7)
    results = _planted_results(rng, lambda: _random_digraph(rng, 12, 20), 10)
    assert results == PLANTED_RESULTS


def test_planted_isomorphism_on_regular_graphs():
    rng = random.Random(3)

    def permutation_union():
        arcs = []
        for _ in range(2):
            perm = list(range(10))
            rng.shuffle(perm)
            arcs.extend(enumerate(perm))
        return UnlabelledDigraph(10, tuple(sorted(arcs)))

    assert _planted_results(rng, permutation_union, 6) == REGULAR_RESULTS


def test_exhaustive_search_proves_non_isomorphism():
    # one 6-cycle against two 3-cycles: refinement cannot tell them apart
    cycle = UnlabelledDigraph(6, tuple((i, (i + 1) % 6) for i in range(6)))
    triangles = UnlabelledDigraph(
        6, tuple((i, 3 * (i // 3) + (i + 1) % 3) for i in range(6))
    )
    for g1, g2 in ((cycle, triangles), (triangles, cycle)):
        result = find_isomorphism(g1, g2)
        assert (result.status, result.certificate, result.expansions) == (
            "non_isomorphic", None, 18,
        )


def test_fingerprint_difference_means_no_certificate():
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        graph = _random_digraph(rng, 10, 18)
        arcs = list(graph.arcs)
        removed = arcs.pop(rng.randrange(len(arcs)))
        replacement = removed
        while replacement in graph.arcs:
            replacement = (rng.randrange(10), rng.randrange(10))
        tampered = UnlabelledDigraph(10, tuple(sorted(arcs + [replacement])))
        if graph_invariants(graph) == graph_invariants(tampered):
            continue
        checked += 1
        result = find_isomorphism(graph, tampered)
        # refinement alone rejects every one of these pairs
        assert (result.status, result.certificate, result.expansions) == (
            "non_isomorphic", None, 0,
        )
    assert checked == 30


def test_nfm3_out_edges_split_into_both_classes(sys_m):
    ball = build_ball(sys_m, "right", 6, "with_frontier")
    targets = {}
    for src, dst, g in ball.edges:
        targets.setdefault(src, {})[g] = ball.vertices[dst]
    for src, g, outside in ball.frontier:
        targets.setdefault(src, {})[g] = outside
    checked = 0
    for i, word in enumerate(ball.vertices):
        if oracles.m_kind(word) != "NFM3":
            continue
        kinds = {oracles.m_kind(target) for target in targets[i].values()}
        assert kinds == {"NFM2", "NFM3"}
        checked += 1
    assert checked > 0


def test_left_separation_radius_is_stable(sys_m, sys_n):
    report = separate_left_graphs(8)
    assert report.separated
    assert report.radius == LEFT_SEPARATION_RADIUS
    assert report.invariant == "two-step degree profile multiset"
    # independently confirmed: the search proves non-isomorphism there
    gm = strip_labels(build_ball(sys_m, "left", LEFT_SEPARATION_RADIUS, "closed"))
    gn = strip_labels(build_ball(sys_n, "left", LEFT_SEPARATION_RADIUS, "closed"))
    assert find_isomorphism(gm, gn).status == "non_isomorphic"


def test_left_balls_agree_below_separation(sys_m, sys_n):
    report = separate_left_graphs(LEFT_SEPARATION_RADIUS - 1)
    assert not report.separated
    assert len(report.lines) == LEFT_SEPARATION_RADIUS - 1


def test_exhausted_budget_leaves_a_radius_undecided(monkeypatch):
    """The search budget is read when the separation runs; an exhausted
    search decides nothing, and the fingerprints still separate."""
    monkeypatch.setattr(isomorphism, "DEFAULT_BUDGET", 0)
    report = separate_left_graphs(LEFT_SEPARATION_RADIUS)
    assert report.lines[0] == (
        "radius 1: undecided, search budget exhausted after 1 expansions"
    )
    assert (report.separated, report.radius) == (True, LEFT_SEPARATION_RADIUS)


def test_left_fingerprints_differ_at_every_radius_from_separation_on(sys_m, sys_n):
    # an isomorphism of left balls fixes the identity, the one vertex
    # without an in-arc, and keeps the distance from it, so it would
    # restrict to every smaller radius: from 4 on the balls stay apart,
    # and the fingerprint alone tells them apart up to radius 10
    for radius in range(11):
        fm, fn = (
            graph_invariants(strip_labels(build_ball(system, "left", radius, "closed")))
            for system in (sys_m, sys_n)
        )
        assert (fm == fn) == (radius < LEFT_SEPARATION_RADIUS), radius


def test_tiny_left_balls_are_identical(sys_m, sys_n):
    ball_m = build_ball(sys_m, "left", 1, "closed")
    ball_n = build_ball(sys_n, "left", 1, "closed")
    assert len(ball_m.vertices) == len(ball_n.vertices) == 3
    assert strip_labels(ball_m).arcs == strip_labels(ball_n).arcs


def test_self_comparison_never_separates(sys_m):
    report = separate_left_graphs(5, system_a=sys_m, system_b=sys_m)
    assert not report.separated
    assert all("not separated" in line for line in report.lines)


def test_separation_requires_positive_radius():
    with pytest.raises(ValueError):
        separate_left_graphs(0)


def _search_outcomes(sys_m, sys_n):
    """``(status, expansions, mapping)`` of the search on the right balls
    of M and N up to radius 12, their left balls of radius 1 to 3, and
    a two-shift circulant and a hub path, each against a relabelling."""
    pairs = [
        tuple(strip_labels(build_ball(system, side, radius, "closed"))
              for system in (sys_m, sys_n))
        for side, radii in (("right", range(13)), ("left", range(1, 4)))
        for radius in radii
    ]
    circulant = UnlabelledDigraph(
        200, tuple((i, (i + k) % 200) for k in (1, 3) for i in range(200))
    )
    for graph, seed in ((circulant, 5), (UnlabelledDigraph(*hub_path(200)), 9)):
        pairs.append((graph, _shuffled(random.Random(seed), graph)))
    outcomes = []
    for g1, g2 in pairs:
        result = find_isomorphism(g1, g2)
        mapping = result.certificate.mapping if result.certificate else None
        outcomes.append((result.status, result.expansions, mapping))
    return outcomes


# sha256 of the outcomes above.  Refinement by counting left it as it
# was, since the search reads only the partition.  Forced pairs and
# candidates from a mapped neighbour's image changed one entry: the
# circulant, from 9 970 expansions to 200, with the same mapping.
SEARCH_OUTCOMES_SHA256 = (
    "b6745e7d907fd7ecbbf78727226e40b6100b3e0c1b8098486e178e5cb64dde7a"
)


def test_search_outcomes_are_pinned(sys_m, sys_n):
    outcomes = _search_outcomes(sys_m, sys_n)
    assert [status for status, _, _ in outcomes] == ["isomorphic"] * len(outcomes)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == SEARCH_OUTCOMES_SHA256


def test_hub_path_search_is_not_quadratic():
    """Refinement by passes would re-sort both hubs' L + 1 neighbours in
    each of L passes, quadratic in L; counting refinement takes
    O((n + m) log n)."""
    graph = UnlabelledDigraph(*hub_path(16_000))
    relabelled = _shuffled(random.Random(9), graph)
    start = time.perf_counter()
    result = find_isomorphism(graph, relabelled)
    elapsed = time.perf_counter() - start
    assert result.status == "isomorphic"
    assert elapsed < 3.0


def test_circulant_search_is_linear():
    """Refinement leaves a two-shift circulant one class.  Taking every
    unmapped member as a candidate cost about n²/4 expansions against a
    relabelling; the neighbours of a mapped neighbour's image are two."""
    n = 2000
    graph = UnlabelledDigraph(
        n, tuple((i, (i + k) % n) for k in (1, 3) for i in range(n))
    )
    result = find_isomorphism(graph, _shuffled(random.Random(5), graph))
    assert result.status == "isomorphic"
    assert result.expansions < 4 * n
