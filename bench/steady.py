"""Steadiness report: repeat one workload and show how far each metric
spreads.

    python3 bench/steady.py --workload certify [--seed 1] [--runs 5]
                            [--trace 0|1] [--seconds S]

Runs ``bench/run.py`` ``--runs`` times, one after another, on one seed,
then prints every metric's median and its spread: the interquartile range
of the runs divided by their median.  An end-to-end metric whose spread
exceeds its bound in ``BENCHMARK.json`` is flagged and makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for i in range(args.runs):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"run {i + 1}/{args.runs}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    flagged = []
    print(f"{'metric':48} {'median':>14} {'unit':>6} {'spread':>8} {'bound':>6}")
    for name, runs in values.items():
        s = spread(runs)
        bound = bounds.get(name)
        wide = bound is not None and s > bound
        if wide:
            flagged.append(name)
        print(f"{name:48} {statistics.median(runs):14.6g} {units[name]:>6} {s:8.4f} "
              f"{'' if bound is None else bound:>6}{'  WIDER THAN BOUND' if wide else ''}")
        print(f"{'':48} runs: {' '.join(f'{v:.6g}' for v in runs)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
