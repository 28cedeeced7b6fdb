"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbers frozen here were computed with the independent oracles in
``oracles.py`` before being asserted against the library.
"""

import subprocess
import sys
import time

import pytest

from cayleyforge import (
    build_ball,
    check_local_confluence,
    critical_pairs,
    enumerate_normal_forms,
    find_isomorphism,
    is_irreducible,
    normal_form,
    separate_left_graphs,
    strip_labels,
    system_m,
    system_n,
    truncated_system_m,
    verify_explicit_iso,
)
from cayleyforge.cli import main

import oracles

LEFT_SEPARATION_RADIUS = 4  # frozen regression constant, see test_isomorphism


def _report(number, passed, detail):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed


def _alternating_shape(word):
    """xyxyx: five letters, two distinct, strictly alternating."""
    return (
        len(word) == 5
        and word[0] == word[2] == word[4]
        and word[1] == word[3]
        and word[0] != word[1]
    )


def test_criterion_1_builtin_n_is_complete(capsys):
    start = time.perf_counter()
    assert main(["confluence", "-p", "builtin:N"]) == 0
    report = check_local_confluence(system_n())
    assert report.passed
    joined = set()
    for pair in critical_pairs(system_n()):
        if pair.kind != "overlap":
            continue
        left = normal_form(system_n(), pair.left_result)
        right = normal_form(system_n(), pair.right_result)
        assert left == right
        assert _alternating_shape(left)
        joined.add(left)
    assert joined == {"cdcdc"}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, True, f"N complete, all overlaps join as cdcdc ({elapsed:.2f}s)")


def test_criterion_2_builtin_m_is_complete_bounded(capsys):
    start = time.perf_counter()
    assert main(["confluence", "-p", "builtin:M", "--schema-bound", "12"]) == 0
    report = check_local_confluence(system_m(), 12)
    assert report.passed
    assert report.pair_count == 121
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _report(2, True, f"M complete at bound 12, 121 pairs join ({elapsed:.2f}s)")


def test_criterion_3_all_strategy_confluence_oracle(capsys):
    start = time.perf_counter()
    checked = 0
    for system, alphabet, bound in (
        (system_m(), "ab", 12),
        (system_n(), "cd", 1),
    ):
        rules = oracles.concrete_rules(system, bound)
        memo = {}
        for word in oracles.words_up_to(alphabet, 9):
            endpoints = oracles.reachable_normal_forms(word, rules, memo)
            assert len(endpoints) == 1, f"{word!r} has several endpoints"
            assert next(iter(endpoints)) == normal_form(system, word)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        _report(3, True, f"{checked} words, unique endpoint = normal form "
                          f"({elapsed:.2f}s)")


def test_criterion_4_classifiers_accept_exactly_the_irreducibles(capsys):
    # the irreducible words are exactly NFM1-3 / NFN1-3, as stated by the
    # patterns in oracles.py
    mismatches = 0
    for system, alphabet, pattern in (
        (system_m(), "ab", oracles.M_NORMAL_FORM),
        (system_n(), "cd", oracles.N_NORMAL_FORM),
    ):
        matches = 0
        for word in oracles.words_up_to(alphabet, 14):
            matched = pattern.fullmatch(word) is not None
            matches += matched
            mismatches += matched != is_irreducible(system, word)
        assert matches == 6625
    with capsys.disabled():
        _report(4, mismatches == 0, f"irreducible exactly when NFM1-3 / NFN1-3, "
                                    f"every word up to length 14, "
                                    f"{mismatches} mismatches")


def test_criterion_5_right_ball_isomorphism(capsys):
    start = time.perf_counter()
    assert len(oracles.irreducible_words_by_filter(system_m(), 12, 4)) == 30
    assert len(oracles.irreducible_words_by_filter(system_n(), 1, 5)) == 57
    for radius in range(0, 13):
        ball_m = build_ball(system_m(), "right", radius, "closed")
        ball_n = build_ball(system_n(), "right", radius, "closed")
        assert len(ball_m.vertices) == len(ball_n.vertices)
        if radius == 4:
            assert len(ball_m.vertices) == 30
        if radius == 5:
            assert len(ball_m.vertices) == 57
        assert verify_explicit_iso(ball_m, ball_n).verified
        result = find_isomorphism(strip_labels(ball_m), strip_labels(ball_n))
        assert result.status == "isomorphic"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(5, True, f"verified and searched radii 0..12, "
                          f"|ball(4)|=30, |ball(5)|=57 ({elapsed:.2f}s)")


# stdout of ``verify-iso --radius 12``, recorded before the search and the
# refinement were rewritten; the expansion count equals the vertex count
VERIFY_ISO_RADIUS_12 = """\
radius 12: 2475 vertices (M ball) and 2475 vertices (N ball)
explicit bijection: verified (6736 arcs checked across both directions, 2475 vertices)
independent search: isomorphic (2475 expansions, certificate validated)
verify-iso: PASS
"""


def test_verify_iso_radius_12_output_is_pinned(capsys):
    assert main(["verify-iso", "--radius", "12"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (VERIFY_ISO_RADIUS_12, "")


# stdout of ``confluence -p builtin:M --schema-bound 40`` and of
# ``verify-iso --radius 4 --format json``, recorded before the critical
# pairs were streamed and the explicit map was read letter by letter
CONFLUENCE_M_BOUND_40 = """\
system: builtin:M (0 rules, 1 schemas)
bounded certificate: schemas instantiated for exponents up to 40
critical pairs: 1521 (1521 overlap, 0 containment)
local confluence: PASS
"""

_IDENTITY_30 = "[" + ", ".join(str(i) for i in range(30)) + "]"
VERIFY_ISO_RADIUS_4_JSON = (
    '{"radius": 4, "vertices": 30, "arcs": 33, '
    '"explicit": {"status": "verified", "mapping": ' + _IDENTITY_30
    + ', "witness": null}, '
    '"search": {"status": "isomorphic", "mapping": ' + _IDENTITY_30
    + ', "witness": null}}\n'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["confluence", "-p", "builtin:M", "--schema-bound", "40"],
         CONFLUENCE_M_BOUND_40),
        (["verify-iso", "--radius", "4", "--format", "json"],
         VERIFY_ISO_RADIUS_4_JSON),
    ],
    ids=["confluence-m-40", "verify-iso-4-json"],
)
def test_pinned_cli_outputs(argv, expected, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_criterion_6_truncation_argument(capsys):
    for n0 in (2, 3, 5, 10):
        word = "a" + "b" * (n0 + 1) + "a"
        assert is_irreducible(truncated_system_m(n0), word)
        assert normal_form(system_m(), word) == "aba"
        assert main(["truncation-test", "--n0", str(n0)]) == 0
    with capsys.disabled():
        _report(6, True, "n0 in {2,3,5,10}: ab^(n0+1)a irreducible when "
                          "truncated, aba in full M")


def test_criterion_7_left_ball_separation(capsys):
    report = separate_left_graphs(8)
    assert report.separated, "left balls did not separate by radius 8"
    assert report.radius == LEFT_SEPARATION_RADIUS
    assert report.invariant == "two-step degree profile multiset"
    with capsys.disabled():
        _report(7, True, f"left balls separate at radius {report.radius} "
                          f"({report.invariant})")


def test_criterion_8_ball_structure(capsys):
    for system in (system_m(), system_n()):
        for radius in range(0, 9):
            ball = build_ball(system, "right", radius, "with_frontier")
            seen = set()
            out_degree = dict.fromkeys(range(len(ball.vertices)), 0)
            for src, dst, _ in ball.edges:
                assert src != dst, "loop"
                key = (src, ball.vertices[dst])
                assert key not in seen, "parallel arc"
                seen.add(key)
                out_degree[src] += 1
            for src, _, target in ball.frontier:
                key = (src, target)
                assert key not in seen, "parallel arc via frontier"
                seen.add(key)
                out_degree[src] += 1
            assert all(count == 2 for count in out_degree.values())
    with capsys.disabled():
        _report(8, True, "no loops, no parallel arcs, out-degree 2 with "
                          "frontier, radii 0..8")


CLI_COMMANDS = [
    ["reduce", "-p", "builtin:N", "-w", "cdddcdc"],
    ["reduce", "-p", "builtin:M", "-w", "abbabba", "--format", "json"],
    ["confluence", "-p", "builtin:N"],
    ["confluence", "-p", "builtin:M", "--schema-bound", "12"],
    ["ball", "-p", "builtin:M", "--side", "right", "--radius", "3", "--format", "dot"],
    ["ball", "-p", "builtin:N", "--radius", "4", "--format", "json",
     "--policy", "with-frontier"],
    ["ball", "-p", "builtin:N", "--side", "left", "--radius", "3"],
    ["verify-iso", "--radius", "4"],
    ["truncation-test", "--n0", "3"],
    ["left-noniso", "--max-radius", "5"],
]


def test_criterion_9_cli_determinism(capsys):
    for argv in CLI_COMMANDS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cayleyforge", *argv],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, argv
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr, argv
    with capsys.disabled():
        _report(9, True, f"{len(CLI_COMMANDS)} commands byte-identical across "
                          "consecutive runs")
