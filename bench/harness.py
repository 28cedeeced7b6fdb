"""Closed-loop client, span tracer and per-layer metrics.

A workload is a list of tasks; each task is one operation of the closed
loop, made of one or more library calls issued one after another on one
thread, and is timed as a whole.  In a traced round every call also gets
a span named ``module.function`` (the cayleyforge module that defines
the function), whose parent is the span of its task.  Counts are taken
at the same boundaries, from each call's arguments and result.  Spans
and counts stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = (
    "rewriting",
    "confluence",
    "presentations",
    "normal_forms",
    "cayley",
    "isomorphism",
    "cli",
)


@dataclass
class Task:
    """One step of a workload: ``run`` makes library calls through the
    client and returns what they produced; ``check`` returns None when
    that output is correct, or a description of what is wrong."""

    kind: str
    run: Callable[["Client"], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    """A workload's fixed list of tasks for one seed.

    ``inputs`` describes every input handed to the library and is what
    the printed digest covers; ``items`` is the workload's unit of work
    in one round (symbols, vertices or critical pairs), counted from the
    inputs by the reference code.  ``systems`` maps "M" and "N" to the
    builtin systems the tasks use; the run replaces them with newly built
    ones before every round.
    """

    tasks: list[Task]
    inputs: object
    items: int
    warmup: Callable[["Client"], object]
    systems: dict


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _count_normal_form(args, result, counts):
    counts["rewriting.symbols_in"] += len(args[1])
    counts["rewriting.symbols_removed"] += len(args[1]) - len(result)


def _count_build_ball(args, result, counts):
    counts["cayley.vertices"] += len(result.vertices)
    counts["cayley.edges"] += len(result.edges)
    counts["cayley.frontier"] += len(result.frontier)


def _count_search(args, result, counts):
    counts["isomorphism.expansions"] += result.expansions
    if result.status == "isomorphic":
        counts["isomorphism.assigned"] += args[0].n


COUNTERS = {
    "rewriting.normal_form": _count_normal_form,
    "confluence.check_local_confluence": lambda a, r, c: c.update(
        {"confluence.pairs": r.pair_count}
    ),
    "presentations.parse_presentation": lambda a, r, c: c.update(
        {"presentations.rules_parsed": r.rule_count()}
    ),
    "normal_forms.enumerate_normal_forms": lambda a, r, c: c.update(
        {"normal_forms.words": len(r)}
    ),
    "cayley.build_ball": _count_build_ball,
    "isomorphism.verify_explicit_iso": lambda a, r, c: c.update(
        {"isomorphism.arcs_checked": r.arcs_checked}
    ),
    "isomorphism.find_isomorphism": _count_search,
}


class Tracer:
    """Spans as (id, parent id, name, op id, start, end) tuples, plus
    counts for the current round.  The op id numbers the operations
    (tasks) of the run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.parent: int | None = None
        self.next_id = 0
        self.op = 0

    def new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def add(self, span_id, parent, name, op, start, end) -> None:
        self.spans.append((span_id, parent, name, op, start, end))


class Client:
    """Issues library calls; with a tracer, records a span and counts for
    each."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer

    def call(self, fn, *args):
        tracer = self.tracer
        if tracer is None:
            return fn(*args)
        name = _span_name(fn)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            tracer.add(tracer.new_id(), tracer.parent, name, tracer.op, start, end)
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(args, result, tracer.counts)
        return result

    def count(self, name: str, value: int) -> None:
        """Add to a count measured by the benchmark at a call boundary."""
        if self.tracer is not None:
            self.tracer.counts[name] += value


@dataclass
class Round:
    latencies: list[float]  # of each task
    fingerprints: list[str]  # of each task's output
    verdicts: list[str | None]  # of each task's check, if the round ran them
    spans: list[tuple]
    counts: Counter


class TaskError:
    """Stands in for the output of a task that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self) -> str:
        return f"TaskError({self.text!r})"


CHUNK = 4096  # elements of a long tuple or list rendered at a time


def _feed_text(h, text: str) -> None:
    if " object at 0x" in text:
        raise TypeError(f"no canonical text for {text[:80]!r}")
    data = text.encode()
    h.update(b"%d:" % len(data))
    h.update(data)


def _feed(h, obj) -> None:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _feed_text(h, type(obj).__qualname__)
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    elif type(obj) in (tuple, list):
        _feed_text(h, f"{type(obj).__name__}[{len(obj)}]")
        if len(obj) <= 8:
            for item in obj:
                _feed(h, item)
        else:
            for i in range(0, len(obj), CHUNK):
                _feed_text(h, repr(obj[i : i + CHUNK]))
    elif isinstance(obj, str):
        _feed_text(h, obj)
    else:
        _feed_text(h, repr(obj))


def fingerprint(output) -> str:
    """A digest of a task's output that equal outputs share.

    Outputs are built of strings, numbers, tuples and the library's
    frozen dataclasses, whose reprs are canonical; a long tuple is
    rendered a chunk at a time, so the digest costs little memory beside
    the output itself.
    """
    h = hashlib.sha256()
    _feed(h, output)
    return h.hexdigest()


def run_round(tasks: list[Task], client: Client, check: bool = False) -> Round:
    """Run every task once, in order, and time each task.

    Each output is reduced to its fingerprint right after its task,
    outside the timed interval, and dropped, so the round holds one
    output at a time.  With ``check`` the task's check runs on it too.
    """
    tracer = client.tracer
    latencies: list[float] = []
    fingerprints: list[str] = []
    verdicts: list[str | None] = []
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.counts = Counter()
    for task in tasks:
        if tracer:
            tracer.parent = tracer.new_id()
            tracer.op += 1
        start = perf_counter()
        try:
            out = task.run(client)
        except Exception as exc:
            out = TaskError(exc)
        end = perf_counter()
        latencies.append(end - start)
        if tracer:
            tracer.add(tracer.parent, None, "bench." + task.kind, tracer.op, start, end)
            tracer.parent = None
        fingerprints.append(fingerprint(out))
        if check:
            verdicts.append(check_output(task, out))
        del out
    spans = tracer.spans[first_span:] if tracer else []
    counts = tracer.counts if tracer else Counter()
    return Round(latencies, fingerprints, verdicts, spans, counts)


def check_output(task: Task, output) -> str | None:
    if isinstance(output, TaskError):
        return f"{task.kind} raised {output.text}"
    try:
        return task.check(output)
    except Exception as exc:  # a malformed output must fail its check, not the run
        return f"{task.kind} output could not be checked: {TaskError(exc).text}"


BUSY = (
    "rewriting.normal_form",
    "rewriting.is_irreducible",
    "confluence.words_equal",
    "confluence.check_local_confluence",
    "confluence.certify",
    "presentations.parse_presentation",
    "presentations.truncated_system_m",
    "normal_forms.enumerate_normal_forms",
    "cayley.build_ball",
    "cayley.strip_labels",
    "cayley.graph_invariants",
    "isomorphism.verify_explicit_iso",
    "isomorphism.find_isomorphism",
    "isomorphism.separate_left_graphs",
    "cli.main",
)
CALLS = (
    "rewriting.normal_form",
    "confluence.words_equal",
    "confluence.check_local_confluence",
    "confluence.certify",
    "presentations.parse_presentation",
    "presentations.truncated_system_m",
    "normal_forms.enumerate_normal_forms",
    "cayley.build_ball",
    "isomorphism.verify_explicit_iso",
    "isomorphism.find_isomorphism",
    "cli.main",
)
COUNTS = (
    "rewriting.symbols_in",
    "rewriting.symbols_removed",
    "confluence.pairs",
    "confluence.certify.rejected",
    "presentations.rules_parsed",
    "normal_forms.words",
    "cayley.vertices",
    "cayley.edges",
    "cayley.frontier",
    "isomorphism.arcs_checked",
    "isomorphism.expansions",
    "cli.stdout_bytes",
)
# (metric, function whose busy time is divided, by which count, unit)
RATES = (
    ("rewriting.ns_per_symbol", "rewriting.normal_form", "rewriting.symbols_in", "ns"),
    ("confluence.us_per_pair", "confluence.check_local_confluence", "confluence.pairs",
     "us"),
    ("normal_forms.us_per_word", "normal_forms.enumerate_normal_forms",
     "normal_forms.words", "us"),
    ("cayley.us_per_vertex", "cayley.build_ball", "cayley.vertices", "us"),
    ("isomorphism.us_per_expansion", "isomorphism.find_isomorphism",
     "isomorphism.expansions", "us"),
)
SCALES = {"ns": 1e9, "us": 1e6}
COUNT_UNITS = {"cli.stdout_bytes": "B"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layer_metrics(rnd: Round) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round.

    Busy time is the summed duration of a function's (or layer's) spans;
    self time subtracts the part covered by child spans.  The benchmark's
    own layer is ``bench``: its self time is the time of its tasks not
    spent inside a library call.
    """
    busy: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    for _, parent, name, _, start, end in rnd.spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
    layer_busy: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    for span_id, _, name, _, start, end in rnd.spans:
        layer = name.split(".", 1)[0]
        layer_busy[layer] += end - start
        layer_self[layer] += end - start - child_time[span_id]

    metrics: dict[str, tuple[float, str]] = {}
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (busy[name], "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTS:
        metrics[name] = (rnd.counts[name], COUNT_UNITS.get(name, "count"))
    for metric, fn, count, unit in RATES:
        metrics[metric] = (_ratio(busy[fn], rnd.counts[count]) * SCALES[unit], unit)
    metrics["isomorphism.search_yield"] = (
        _ratio(rnd.counts["isomorphism.assigned"], rnd.counts["isomorphism.expansions"]),
        "ratio",
    )
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (layer_busy[layer], "s")
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["bench.self_s"] = (layer_self["bench"], "s")
    return metrics


def fastest_metrics(per_round: list[dict]) -> dict[str, tuple[float, str]]:
    """Each metric's smallest value over the traced rounds (counts are the
    same in every round)."""
    return {
        name: (min(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
