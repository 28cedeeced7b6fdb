"""Command-line interface.

Exit codes: 0 success or property verified, 1 a checked property failed,
2 usage or presentation errors, an output file or stdout that cannot be
written, or a computation too large for the memory available, 3 an
internal error (a bug, reported without a traceback).  Codes 2 and 3
come with one ``error:`` or ``internal error:`` line on stderr.
All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .cayley import build_ball, export_dot, export_json, strip_labels
from .confluence import (
    DEFAULT_SCHEMA_BOUND,
    NotConfluentError,
    certify,
    check_local_confluence,
)
from .isomorphism import (
    find_isomorphism,
    separate_left_graphs,
    verify_explicit_iso,
)
from .presentations import (
    load_presentation,
    system_m,
    system_n,
    truncated_system_m,
)
from .rewriting import (
    describe_match,
    is_irreducible,
    normal_form,
    reduction_steps,
    show_word,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return parse


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc


def cmd_reduce(args: argparse.Namespace) -> int:
    system = load_presentation(args.presentation)
    steps = reduction_steps(system, args.word)
    result = steps[-1].result if steps else args.word
    if args.format == "json":
        payload = {
            "input": args.word,
            "normal_form": result,
            "steps": [
                {
                    "rule": system.label(step.match.rule_index),
                    "position": step.match.position,
                    "exponent": step.match.exponent,
                    "result": step.result,
                }
                for step in steps
            ],
        }
        print(json.dumps(payload, ensure_ascii=False))
        return EXIT_OK
    print(show_word(args.word))
    for step in steps:
        print(f"  -> {show_word(step.result)}  via {describe_match(system, step.match)}")
    plural = "step" if len(steps) == 1 else "steps"
    print(f"{show_word(result)} ({len(steps)} {plural})")
    return EXIT_OK


def cmd_confluence(args: argparse.Namespace) -> int:
    system = load_presentation(args.presentation)
    report = check_local_confluence(system, args.schema_bound)
    print(
        f"system: {args.presentation} "
        f"({len(system.rules)} rules, {len(system.schemas)} schemas)"
    )
    if system.schemas:
        print(
            f"bounded certificate: schemas instantiated for exponents up to "
            f"{args.schema_bound}"
        )
    print(
        f"critical pairs: {report.pair_count} "
        f"({report.overlap_count} overlap, {report.containment_count} containment)"
    )
    for failure in report.failures:
        print(
            f"non-joining pair: source {show_word(failure.pair.source)} -> "
            f"{show_word(failure.pair.left_result)} | "
            f"{show_word(failure.pair.right_result)}; normal forms "
            f"{show_word(failure.left_normal)} != {show_word(failure.right_normal)}"
        )
    print(f"local confluence: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILED


def cmd_ball(args: argparse.Namespace) -> int:
    system = load_presentation(args.presentation)
    if not system.is_certified:
        try:
            system = certify(system, args.schema_bound)
        except NotConfluentError as exc:
            print(f"{exc}; refusing to build a ball", file=sys.stderr)
            return EXIT_PROPERTY_FAILED
    policy = args.policy.replace("-", "_")
    ball = build_ball(system, args.side, args.radius, policy)
    if args.format == "dot":
        _emit(export_dot(ball), args.output)
    elif args.format == "json":
        _emit(export_json(ball) + "\n", args.output)
    else:
        lines = [
            f"{ball.side} ball of radius {ball.radius}: "
            f"{len(ball.vertices)} vertices, {len(ball.edges)} edges, "
            f"{len(ball.frontier)} frontier targets ({ball.policy})"
        ]
        for src, dst, g in ball.edges:
            lines.append(
                f"  {show_word(ball.vertices[src])} -{g}-> "
                f"{show_word(ball.vertices[dst])}"
            )
        for src, g, target in ball.frontier:
            lines.append(
                f"  {show_word(ball.vertices[src])} -{g}-> {target} (outside)"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify_iso(args: argparse.Namespace) -> int:
    ball_m = build_ball(system_m(), "right", args.radius, "closed")
    ball_n = build_ball(system_n(), "right", args.radius, "closed")
    report = verify_explicit_iso(ball_m, ball_n)
    # The search and the output read only the digraphs, so the labelled
    # balls are freed before the search.
    g_m, g_n = strip_labels(ball_m), strip_labels(ball_n)
    del ball_m, ball_n
    search = find_isomorphism(g_m, g_n)
    ok = report.verified and search.status == "isomorphic"

    if args.format == "json":
        found = search.certificate.mapping if search.certificate else None
        print(
            json.dumps(
                {
                    "radius": args.radius,
                    "vertices": g_m.n,
                    "arcs": len(g_m.arcs),
                    "explicit": {
                        "status": report.status,
                        "mapping": report.mapping,
                        "witness": report.witness,
                    },
                    "search": {"status": search.status, "mapping": found, "witness": None},
                },
                ensure_ascii=False,
            )
        )
        return EXIT_OK if ok else EXIT_PROPERTY_FAILED

    print(
        f"radius {args.radius}: {g_m.n} vertices (M ball) and "
        f"{g_n.n} vertices (N ball)"
    )
    if report.verified:
        print(
            f"explicit bijection: verified "
            f"({report.arcs_checked} arcs checked across both directions, "
            f"{report.vertices_checked} vertices)"
        )
    else:
        direction, detail = report.witness
        print(f"explicit bijection: FAILED ({direction}: {detail})")
    if search.status == "isomorphic":
        print(
            f"independent search: isomorphic "
            f"({search.expansions} expansions, certificate validated)"
        )
    elif search.status == "non_isomorphic":
        print("independent search: NOT isomorphic")
    else:
        print(
            f"independent search: budget exhausted after "
            f"{search.expansions} expansions"
        )
    print(f"verify-iso: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_PROPERTY_FAILED


def cmd_truncation_test(args: argparse.Namespace) -> int:
    truncated = truncated_system_m(args.n0)
    word = "a" + "b" * (args.n0 + 1) + "a"
    irreducible = is_irreducible(truncated, word)
    full_nf = normal_form(system_m(), word)
    print(f"truncated system (n0={args.n0}): {len(truncated.rules)} rules")
    if irreducible:
        print(f"{word}: irreducible under the truncated system (no rule applies)")
    else:
        print(f"{word}: REDUCIBLE under the truncated system")
    print(f"full system: {word} reduces to {show_word(full_nf)}")
    ok = irreducible and full_nf == "aba"
    print(f"truncation test: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_PROPERTY_FAILED


def cmd_left_noniso(args: argparse.Namespace) -> int:
    report = separate_left_graphs(args.max_radius)
    for line in report.lines:
        print(line)
    if report.separated:
        print(
            f"left balls separated at radius {report.radius} "
            f"({report.invariant})"
        )
        return EXIT_OK
    print(f"left balls not separated up to radius {report.max_radius}")
    return EXIT_PROPERTY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyforge",
        description=(
            "String rewriting, confluence checking, Cayley-graph balls and "
            "isomorphism verification for finitely generated monoids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite a word to its normal form")
    p.add_argument("-p", "--presentation", required=True,
                   help="presentation file or builtin:M / builtin:N")
    p.add_argument("-w", "--word", required=True,
                   help="word as a compact symbol string, e.g. cdddcdc")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("confluence", help="check local confluence via critical pairs")
    p.add_argument("-p", "--presentation", required=True)
    p.add_argument("--schema-bound", type=_at_least(0),
                   default=DEFAULT_SCHEMA_BOUND,
                   help=f"instantiate schemas up to this exponent (default "
                        f"{DEFAULT_SCHEMA_BOUND})")
    p.set_defaults(func=cmd_confluence)

    p = sub.add_parser("ball", help="build a Cayley-graph ball")
    p.add_argument("-p", "--presentation", required=True)
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.add_argument("--radius", type=_at_least(0), required=True)
    p.add_argument("--policy", choices=("closed", "with-frontier"), default="closed")
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.add_argument("--schema-bound", type=_at_least(0),
                   default=DEFAULT_SCHEMA_BOUND)
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: stdout)")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser(
        "verify-iso",
        help="verify the explicit right-ball isomorphism between the builtins "
             "and confirm it with an independent search",
    )
    p.add_argument("--radius", type=_at_least(0), default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_iso)

    p = sub.add_parser(
        "truncation-test",
        help="show that a finite truncation of the builtin M family leaves "
             "a provably equal word irreducible",
    )
    p.add_argument("--n0", type=_at_least(2), required=True)
    p.set_defaults(func=cmd_truncation_test)

    p = sub.add_parser(
        "left-noniso",
        help="separate the left Cayley balls of the builtins by radius",
    )
    p.add_argument("--max-radius", type=_at_least(1), default=8)
    p.set_defaults(func=cmd_left_noniso)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout: send what is still buffered to
        # devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # Leaving the handler frees what the failed command held, so the
        # message below needs no memory that it could not get.
        pass
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print("error: out of memory", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
