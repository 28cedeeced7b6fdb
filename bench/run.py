"""Benchmark for cayleyforge: four seeded closed-loop workloads.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The workloads (``reduce-stream``, ``verify-iso``, ``ball-build`` and
``certify``) are described in their own modules.  Each is a closed loop
with one client: one process, one thread, each operation issued only
after the previous one returned.  An operation is one task of the
workload: one or more library calls made one after another.

A run builds its inputs from the seed (outside the timed interval; the
printed digest covers them), makes one untimed warm-up call, then repeats
the workload's fixed list of operations, one round after another, in
blocks of ``BLOCK`` rounds, for about ``--seconds`` seconds of operation
time.  Before every round every functools cache at the top level of a
cayleyforge module is cleared and the builtin systems M and N are built
anew, so nothing cached there or on a system object carries over; a
cache kept elsewhere (a module-level dict keyed on words, say) would
still carry over, as every round repeats the same inputs.  Each output is reduced to a fingerprint
right after its task, outside the timed interval, and every round must
reproduce the first round's fingerprints.  After the timed rounds one
more, untimed, round checks every output against the reference code in
``reference.py``.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts operations and ``failed`` those whose check failed,
so their quotient is the fail ratio (also on the line before, with the
digest, the round times and the Python version, CPU count and model).
With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median over fresh interpreters of importing cayleyforge
  and building the builtin systems with their caches cleared;
* ``wall_s``: time of one round, taking each operation at its fastest
  repetition within a block, median over the blocks;
* ``ops_per_s``: operations per second of that time;
* ``op_p50_ms``, ``op_p95_ms``: percentiles over the workload's
  operations of those fastest latencies, median over the blocks; they
  describe operation cost with the noise removed, not tail latency;
* ``items_per_s``: the workload's unit of work per second of that time:
  input symbols (reduce-stream), ball vertices built (verify-iso,
  ball-build) or critical pairs checked by ``check_local_confluence``
  (certify);
* ``peak_rss_mb``: peak resident memory of the timed rounds, which hold
  one output at a time.

Each operation's time is the fastest of its repetitions in a block
because noise on a shared machine only ever adds time, in bursts shorter
than a round: other tenants' load moved verify-iso rounds between 3.2 s
and 5.0 s within one minute on a 2-core VM, and 10 ms loops between 10 ms
and 24 ms.  The minimum is taken over a fixed number of rounds, not over
all of them, so that a faster program, which fits more rounds into the
run, does not also get a minimum over more samples.

With ``--trace 1`` untraced and traced rounds alternate.  Traced rounds
record a span around every call and report per-layer metrics (see
``harness.py``), each the smallest within a block of traced rounds,
median over the blocks, plus the traced round time, taken as ``wall_s``
is, and the tracing overhead (its difference from the untraced one); the
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from harness import Client, Tracer, fastest_metrics, round_layer_metrics, run_round

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = {
    "reduce-stream": "reduce_stream",
    "verify-iso": "verify_iso",
    "ball-build": "ball_build",
    "certify": "certify",
}
BLOCK = 3  # rounds over which an operation's fastest latency is taken
SETUP_REPEATS = 21
MAX_REPORTED_PROBLEMS = 10

# Runs in a fresh interpreter; argv[1] is the source directory.
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cayleyforge
from cayleyforge import presentations
imported = time.perf_counter()
for factory in (presentations.system_m, presentations.system_n,
                presentations.truncated_system_m):
    factory.cache_clear()
presentations.system_m()
presentations.system_n()
built = time.perf_counter()
print(json.dumps({"file": cayleyforge.__file__, "start": start,
                  "imported": imported, "built": built}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's self-test)")
    return parser.parse_args(argv)


def measure_setup() -> dict:
    """Cold import plus builtins, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    times = json.loads(done.stdout)
    if Path(times["file"]).resolve().parent != (SRC / "cayleyforge").resolve():
        raise RuntimeError(f"imported cayleyforge from {times['file']}, not from {SRC}")
    return times


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            models = (line for line in info if line.startswith("model name"))
            cpu = next(models).split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def percentile_ms(latencies: list[float], pct: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1000


def block_fastest(rounds: list[list[float]]) -> list[list[float]]:
    """Each operation's fastest latency within each block of BLOCK
    consecutive rounds."""
    return [[min(op) for op in zip(*rounds[i : i + BLOCK])]
            for i in range(0, len(rounds), BLOCK)]


def clear_library_caches() -> None:
    """Clear every functools cache at the top level of a cayleyforge
    module: the builtin-system factories today, any later cache too."""
    for name, module in list(sys.modules.items()):
        if name == "cayleyforge" or name.startswith("cayleyforge."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def fresh_round(plan, client: Client, check: bool = False):
    """One round on newly built builtin systems with the library's caches
    cleared, so that nothing cached carries over from an earlier round."""
    from cayleyforge import presentations

    clear_library_caches()
    plan.systems["M"] = presentations.system_m()
    plan.systems["N"] = presentations.system_n()
    gc.collect()
    return run_round(plan.tasks, client, check)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cayleyforge" / "__init__.py").is_file():
        print(f"error: no cayleyforge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("CAYLEYFORGE_THREADS", None)
    setups = [measure_setup() for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])
    plan = workload.make_plan(random.Random(f"{args.workload}/{args.seed}"), args.tiny)
    digest = hashlib.sha256(json.dumps(plan.inputs).encode()).hexdigest()[:16]
    plan.warmup(Client())

    tracer = Tracer() if args.trace else None
    plain, traced = Client(), Client(tracer)
    # Operation latencies of every untraced (False) and traced (True) round.
    latencies: dict[bool, list[list[float]]] = {False: [], True: []}
    layer_rounds: list[dict] = []
    fingerprints: list[list[str]] = []
    while True:
        use_trace = bool(args.trace) and len(latencies[False]) > len(latencies[True])
        rnd = fresh_round(plan, traced if use_trace else plain)
        latencies[use_trace].append(rnd.latencies)
        fingerprints.append(rnd.fingerprints)
        if use_trace:
            layer_rounds.append(round_layer_metrics(rnd))
        del rnd
        done = len(latencies[False])
        if done % BLOCK or (args.trace and len(latencies[True]) < done):
            continue
        walls = [sum(lat) for lat in latencies[False] + latencies[True]]
        next_block = BLOCK * statistics.median(walls) * (2 if args.trace else 1)
        if sum(walls) + next_block > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # One more round, untimed, checks every output against the reference
    # code right after its task; it runs after peak_rss_mb is read, so
    # the checks' memory stays out of it.  Its outputs and those of every
    # timed round must have the first round's fingerprints.
    checked = fresh_round(plan, plain, check=True)
    fingerprints.append(checked.fingerprints)
    attempted = len(plan.tasks) * len(fingerprints)
    failed = 0
    problems = []
    for i, (task, verdict) in enumerate(zip(plan.tasks, checked.verdicts)):
        if verdict is not None:
            problems.append(verdict)
        differs = sum(fp[i] != fingerprints[0][i] for fp in fingerprints)
        if differs:
            problems.append(f"{task.kind}: output differs from the first round's "
                            f"in {differs} of {len(fingerprints)} rounds")
        failed += len(fingerprints) if verdict is not None else differs
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = block_fastest(latencies[False])
    untraced_wall = statistics.median(sum(fastest) for fastest in untraced)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "rounds": len(latencies[False]),
        "rounds_per_block": BLOCK,
        "traced_rounds": len(latencies[True]),
        "operations": len(plan.tasks),
        "round_walls_s": [sum(lat) for lat in latencies[False]],
        "fail_ratio": failed / attempted,
        **environment(),
    }
    if args.trace:
        layer_blocks = [fastest_metrics(layer_rounds[i : i + BLOCK])
                        for i in range(0, len(layer_rounds), BLOCK)]
        metrics = {
            name: (statistics.median(block[name][0] for block in layer_blocks), unit)
            for name, (_, unit) in layer_blocks[0].items()
        }
        metrics["presentations.builtins.busy_s"] = (
            statistics.median(s["built"] - s["imported"] for s in setups), "s")
        traced_wall = statistics.median(sum(f) for f in block_fastest(latencies[True]))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        for s in setups:  # each set-up ran in its own interpreter
            setup_id = tracer.new_id()
            tracer.add(setup_id, None, "bench.setup", None, s["start"], s["built"])
            tracer.add(tracer.new_id(), setup_id, "presentations.builtins", None,
                       s["imported"], s["built"])
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            **info,
            "span_fields": ["id", "parent", "name", "op", "start", "end"],
            "spans": tracer.spans,
            "traced_round_metrics": [
                {name: value for name, (value, _) in m.items()} for m in layer_rounds
            ],
        }))
        info["trace_file"] = str(trace_file.relative_to(BENCH.parent))
    else:
        metrics = {
            "setup_s": (statistics.median(s["built"] - s["start"] for s in setups), "s"),
            "wall_s": (untraced_wall, "s"),
            "ops_per_s": (len(plan.tasks) / untraced_wall, "1/s"),
            "op_p50_ms": (statistics.median(percentile_ms(f, 50) for f in untraced), "ms"),
            "op_p95_ms": (statistics.median(percentile_ms(f, 95) for f in untraced), "ms"),
            "items_per_s": (plan.items / untraced_wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
