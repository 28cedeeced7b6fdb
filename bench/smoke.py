"""Self-test of the benchmark at tiny sizes.

    python3 bench/smoke.py

For every workload it runs ``bench/run.py --tiny`` untraced and traced on
one seed and untraced on a second seed, and asserts that

* the last line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and nothing failed (fail ratio 0);
* the metrics are exactly the end-to-end (untraced) or per-layer
  (traced) metrics that ``BENCHMARK.json`` names, with its units;
* the input digest repeats for the same seed (verify-iso and ball-build
  have no random inputs, so theirs is the same for every seed).

It also copies ``BENCHMARK.json`` and the benchmark alone into a scratch
directory under ``bench/out/`` and asserts that the benchmark refuses to
run there, with a non-zero exit and no result line.  Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "1"


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, expected: dict[str, str]) -> str:
    """Check one run's output; return its input digest."""
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}:\n{done.stderr}")
    *_, info_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"fail ratio is not 0: {result_line}\n{done.stderr}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
        raise AssertionError(f"metrics missing {missing}, extra {extra}, bad units {wrong}")
    return json.loads(info_line)["digest"]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    try:
        for workload in (w["name"] for w in config["workloads"]):
            first = result_of(run(ROOT, workload, 1, 0), end_to_end)
            again = result_of(run(ROOT, workload, 1, 1), per_layer)
            result_of(run(ROOT, workload, 2, 0), end_to_end)
            if first != again:
                raise AssertionError(f"seed 1 gave input digests {first} and {again}")
            print(f"{workload}: ok", flush=True)

        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        skip = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(BENCH, bare / "bench", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, config["workloads"][0]["name"], 1, 0)
        shutil.rmtree(bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("the benchmark ran without the library sources")
        print("without sources: refused", flush=True)
    except AssertionError as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
