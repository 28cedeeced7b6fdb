"""ball-build: normal-form enumeration, ball construction and export.

``enumerate_normal_forms`` and ``build_ball`` run for M and N, on both
sides and under both policies, at radii 12 to 15; every ball is stripped
of labels and fingerprinted, and four balls are exported as JSON or DOT
through the in-process CLI with stdout captured.  The radii keep every
operation well under a second, short enough for its fastest repetition
to escape other load on a shared machine.  No search runs, so a
search change should not move this workload.  Rewriting is used
differently than in reduce-stream: millions of short words, each needing
at most one step.  The plan and its order are fixed; the seed only picks
the vertices whose arcs the check re-derives.
"""

from __future__ import annotations

import contextlib
import io
import json

from cayleyforge import (
    build_ball,
    enumerate_normal_forms,
    graph_invariants,
    strip_labels,
    system_m,
    system_n,
    truncated_system_m,
)
from cayleyforge import cli

from harness import Plan, Task
from reference import (
    M_ALPHABET,
    N_ALPHABET,
    count_irreducible,
    degree_pairs,
    degree_profiles,
    irreducible,
    reduce_naive,
    rules_for,
)

ALPHABETS = {"M": M_ALPHABET, "N": N_ALPHABET}
# Each (side, policy) pair meets two radii, one per system.
BUILDS = (
    ("M", "right", "closed", 15),
    ("M", "right", "with_frontier", 14),
    ("M", "left", "closed", 13),
    ("M", "left", "with_frontier", 12),
    ("N", "right", "closed", 12),
    ("N", "right", "with_frontier", 13),
    ("N", "left", "closed", 14),
    ("N", "left", "with_frontier", 15),
)
ENUMERATIONS = (("M", 13), ("M", 15), ("N", 13), ("N", 15))
EXPORTS = (
    ("M", "right", "closed", 11, "json"),
    ("N", "right", "closed", 11, "dot"),
    ("M", "left", "with-frontier", 11, "dot"),
    ("N", "left", "with-frontier", 11, "json"),
)
TINY_SHRINK = 6  # radii 6 to 9 and exports at 5 in the smoke test
SAMPLED_VERTICES = 200


def _reference_count(name: str, radius: int) -> int:
    return count_irreducible(ALPHABETS[name], rules_for(name, radius), radius)


def _check_words(name: str, radius: int, words, picks) -> str | None:
    what = f"{name} radius {radius}"
    expected = _reference_count(name, radius)
    if len(words) != expected:
        return f"{what}: {len(words)} normal forms, reference counts {expected}"
    if any((len(u), u) >= (len(v), v) for u, v in zip(words, words[1:])):
        return f"{what}: normal forms are not in strict shortlex order"
    rules = rules_for(name, radius)
    if not all(irreducible(words[int(f * len(words))], rules) for f in picks):
        return f"{what}: a sampled normal form is reducible"
    return None


def _build_task(systems, name, side, policy, radius, picks) -> Task:
    def run(client):
        ball = client.call(build_ball, systems[name], side, radius, policy)
        graph = client.call(strip_labels, ball)
        return ball, graph, client.call(graph_invariants, graph)

    def check(out):
        ball, graph, fingerprint = out
        what = f"{name} {side} {policy} radius {radius}"
        problem = _check_words(name, radius, ball.vertices, picks)
        if problem:
            return problem
        n = len(ball.vertices)
        targets: dict = {}
        for src, dst, g in ball.edges:
            targets.setdefault((src, g), []).append(dst)
        for src, g, word in ball.frontier:
            targets.setdefault((src, g), []).append(word)
        if any(len(found) > 1 for found in targets.values()):
            return f"{what}: a vertex has two arcs for one generator"
        if policy == "closed" and ball.frontier:
            return f"{what}: a closed ball has frontier targets"
        if policy == "with_frontier" and len(targets) != 2 * n:
            return f"{what}: {len(targets)} arcs and frontier targets, not {2 * n}"
        index = {w: i for i, w in enumerate(ball.vertices)}
        rules = rules_for(name, radius + 1)
        for f in picks:
            i = int(f * n)
            v = ball.vertices[i]
            for g in ALPHABETS[name]:
                target = reduce_naive(v + g if side == "right" else g + v, rules)
                if len(target) <= radius:
                    expected = [index[target]]
                else:
                    expected = [target] if policy == "with_frontier" else []
                if targets.get((i, g), []) != expected:
                    return f"{what}: the {g}-arc of {v} is not {expected}"
        arcs = sorted((s, d) for s, d, _ in ball.edges)
        if graph.n != n or list(graph.arcs) != arcs:
            return f"{what}: strip_labels lost or added arcs"
        if (
            fingerprint.vertex_count != n
            or fingerprint.arc_count != len(arcs)
            or list(fingerprint.degree_pairs) != sorted(degree_pairs(n, arcs))
            or [(d, list(o), list(i)) for d, o, i in fingerprint.neighbor_profiles]
            != degree_profiles(n, arcs)
        ):
            return f"{what}: graph invariants disagree with the reference"
        return None

    return Task("build", run, check)


def _enumerate_task(systems, name, radius, picks) -> Task:
    return Task(
        "enumerate",
        lambda client: client.call(enumerate_normal_forms, systems[name], radius),
        lambda words: _check_words(name, radius, words, picks),
    )


def _export_task(name, side, policy, radius, fmt) -> Task:
    argv = ["ball", "-p", f"builtin:{name}", "--side", side, "--policy", policy,
            "--radius", str(radius), "--format", fmt]

    def run(client):
        # Every CLI invocation builds the builtins afresh, so a warm cache
        # must not make these calls look cheaper than they are.
        for factory in (system_m, system_n, truncated_system_m):
            factory.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = client.call(cli.main, argv)
        text = out.getvalue()
        client.count("cli.stdout_bytes", len(text.encode()))
        return code, text

    def check(out):
        code, text = out
        what = f"export {' '.join(argv)}"
        n = _reference_count(name, radius)
        if code != 0:
            return f"{what}: exit code {code}"
        if fmt == "json":
            payload = json.loads(text)
            described = (payload["side"], payload["radius"], len(payload["vertices"]))
            if described != (side, radius, n):
                return f"{what}: JSON does not describe a ball of {n} vertices"
            arcs = len(payload["edges"]) + len(payload["frontier"])
        else:
            lines = text.splitlines()
            nodes = sum(1 for line in lines if line.startswith("  v") and "->" not in line)
            if lines[0] != "digraph {" or lines[-1] != "}" or nodes != n:
                return f"{what}: DOT does not describe a ball of {n} vertices"
            arcs = sum(1 for line in lines if "->" in line)
        if policy == "with-frontier" and arcs != 2 * n:
            return f"{what}: {arcs} arcs and frontier targets, not {2 * n}"
        return None

    return Task("export", run, check)


def make_plan(rng, tiny: bool) -> Plan:
    shrink = TINY_SHRINK if tiny else 0
    picks = [rng.random() for _ in range(SAMPLED_VERTICES)]
    systems = {"M": system_m(), "N": system_n()}
    tasks, inputs = [], []
    for name, side, policy, radius in BUILDS:
        tasks.append(_build_task(systems, name, side, policy, radius - shrink, picks))
        inputs.append(("build_ball", name, side, policy, radius - shrink))
    for name, radius in ENUMERATIONS:
        tasks.append(_enumerate_task(systems, name, radius - shrink, picks))
        inputs.append(("enumerate_normal_forms", name, radius - shrink))
    for name, side, policy, radius, fmt in EXPORTS:
        tasks.append(_export_task(name, side, policy, radius - shrink, fmt))
        inputs.append(("cli ball", name, side, policy, radius - shrink, fmt))
    return Plan(
        tasks=tasks,
        inputs=inputs,
        items=sum(_reference_count(name, radius - shrink) for name, _, _, radius in BUILDS),
        warmup=lambda client: client.call(enumerate_normal_forms, systems["N"], 8),
        systems=systems,
    )
