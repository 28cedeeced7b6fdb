"""Command-line behaviour: outputs, formats and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cayleyforge import cli, isomorphism
from cayleyforge.cli import main

NON_CONFLUENT = "alphabet a b\nrule a b -> a\nrule b a -> b\n"
N_RULES = """alphabet c d
rule c d d c -> c d c
rule c d d d d -> c d c
rule c d d d c c -> c d c
rule c d d d c d c -> c d c
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_builtin_n(capsys):
    code, out, _ = run(capsys, "reduce", "-p", "builtin:N", "-w", "cdddcdc")
    assert code == 0
    assert out.splitlines()[-1] == "cdc (1 step)"


def test_reduce_zero_steps(capsys):
    code, out, _ = run(capsys, "reduce", "-p", "builtin:M", "-w", "b")
    assert code == 0
    assert out.splitlines()[-1] == "b (0 steps)"


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "-p", "builtin:M", "-w", "abbabba")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ababa (2 steps)"
    assert sum(1 for line in lines if "via" in line) == 2
    assert "position 0" in lines[1]


def test_reduce_json_roundtrips(capsys):
    code, out, _ = run(
        capsys, "reduce", "-p", "builtin:M", "-w", "abbabba", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == "ababa"
    assert len(payload["steps"]) == 2
    assert payload["steps"][0]["position"] == 0


def test_reduce_rejects_bad_word(capsys):
    code, _, err = run(capsys, "reduce", "-p", "builtin:M", "-w", "abc")
    assert code == 2
    assert "not in the alphabet" in err


def test_reduce_rejects_unknown_builtin(capsys):
    code, _, err = run(capsys, "reduce", "-p", "builtin:Q", "-w", "a")
    assert code == 2
    assert "unknown builtin" in err


def test_confluence_n(capsys):
    code, out, _ = run(capsys, "confluence", "-p", "builtin:N")
    assert code == 0
    assert "critical pairs: 12" in out
    assert "local confluence: PASS" in out


def test_confluence_m_prints_bounded_banner(capsys):
    code, out, _ = run(capsys, "confluence", "-p", "builtin:M", "--schema-bound", "12")
    assert code == 0
    assert "bounded certificate" in out
    assert "local confluence: PASS" in out


def test_confluence_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(NON_CONFLUENT, encoding="utf-8")
    code, out, _ = run(capsys, "confluence", "-p", str(path))
    assert code == 1
    assert "non-joining pair: source aba" in out
    assert "local confluence: FAIL" in out


def test_ball_dot_node_count(capsys):
    code, out, _ = run(
        capsys, "ball", "-p", "builtin:M", "--radius", "2", "--format", "dot"
    )
    assert code == 0
    nodes = [l for l in out.splitlines() if "label=" in l and "->" not in l]
    assert len(nodes) == 7


def test_ball_json_parses(capsys):
    code, out, _ = run(
        capsys, "ball", "-p", "builtin:N", "--radius", "3", "--format", "json",
        "--side", "left", "--policy", "with-frontier",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "left"
    assert payload["policy"] == "with_frontier"
    assert len(payload["vertices"]) == 15


def test_ball_text_and_output_file(capsys, tmp_path):
    target = tmp_path / "ball.txt"
    code, out, _ = run(
        capsys, "ball", "-p", "builtin:M", "--radius", "1", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert "3 vertices" in text


def test_ball_from_presentation_file_is_certified_first(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(NON_CONFLUENT, encoding="utf-8")
    code, out, err = run(capsys, "ball", "-p", str(path), "--radius", "2")
    assert (code, out) == (1, "")
    assert "not locally confluent: source 'aba'" in err


def test_ball_from_presentation_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "n.txt"
    path.write_text(N_RULES, encoding="utf-8")
    code, from_file, err = run(
        capsys, "ball", "-p", str(path), "--radius", "4", "--format", "json"
    )
    assert (code, err) == (0, "")
    _, builtin, _ = run(
        capsys, "ball", "-p", "builtin:N", "--radius", "4", "--format", "json"
    )
    assert from_file == builtin


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet ab c\n", "line 1: alphabet symbols are single characters"),
        ("alphabet a a\n", "line 1: duplicate alphabet symbol 'a'"),
        ("alphabet a a ab\n", "line 1: alphabet symbols are single characters"),
        ("alphabet ab c\nrule c c -> c\n",
         "line 1: alphabet symbols are single characters"),
        ("# M with a typo\nalphabet a b\nrule a x -> a\n",
         "line 3: symbol 'x' is not in the alphabet {a, b}"),
        ("alphabet a b\nrule a c{n} a -> a b a where n >= 2\n",
         "line 2: symbol 'c' is not in the alphabet {a, b}"),
    ],
)
def test_presentation_errors_name_their_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "reduce", "-p", str(path), "-w", "a")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_presentation_with_byte_order_mark_loads(capsys, tmp_path, monkeypatch):
    """Same output as the unmarked file.  ``confluence`` prints the path
    it is given, so both files are ``n.txt``, each in its own directory."""
    for directory, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "n.txt").write_text(N_RULES, encoding=encoding)
    monkeypatch.chdir(tmp_path / "plain")
    expected = run(capsys, "confluence", "-p", "n.txt")
    assert expected[0] == 0
    monkeypatch.chdir(tmp_path / "marked")
    assert run(capsys, "confluence", "-p", "n.txt") == expected


def test_undecodable_presentation_names_the_path(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"alphabet a b\n# caf\xe9\n")
    code, out, err = run(capsys, "ball", "-p", str(path), "--radius", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ball", "confluence"])
def test_schema_too_long_to_instantiate_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "huge.txt"
    bound = "99999999999999999999"
    path.write_text(f"alphabet a b\nrule a b{{n}} -> a where n >= {bound}\n", encoding="utf-8")
    argv = ["-p", str(path), "--schema-bound", bound]
    if command == "ball":
        argv += ["--radius", "2"]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: schema ab{n} -> a")
    assert "Traceback" not in err


@pytest.mark.parametrize("relative", ["missing/x.dot", "."])
def test_ball_unwritable_output_is_usage_error(capsys, tmp_path, relative):
    target = tmp_path / relative
    code, out, err = run(
        capsys, "ball", "-p", "builtin:M", "--radius", "2", "-o", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_ball_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "quotes.txt"
    path.write_text('alphabet " \\ a\nrule " \\ -> a\n', encoding="utf-8")
    code, out, err = run(
        capsys, "ball", "-p", str(path), "--radius", "1", "--format", "dot",
        "--policy", "with-frontier",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert '  v1 [label="\\""];' in lines
    assert '  v2 [label="\\\\"];' in lines
    assert '  v0 -> v1 [label="\\""];' in lines
    assert '  f0 [label="\\"\\"", style=dashed];' in lines
    assert '  v1 -> f0 [label="\\"", style=dashed];' in lines
    assert '  f2 [label="\\\\\\"", style=dashed];' in lines


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify-iso", "--radius", "abc"], "'abc'"),
        (["truncation-test", "--n0", "x"], "'x'"),
        (["ball", "-p", "builtin:M", "--radius", "1.5"], "'1.5'"),
    ],
)
def test_bad_integer_arguments_name_the_value(capsys, argv, value):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"expected an integer, got {value}" in err
    assert "invalid parse value" not in err


@pytest.mark.parametrize(
    "argv, flag, bound",
    [
        (["verify-iso", "--radius", "-1"], "--radius", 0),
        (["truncation-test", "--n0", "1"], "--n0", 2),
        (["left-noniso", "--max-radius", "0"], "--max-radius", 1),
    ],
)
def test_integer_arguments_below_their_bound_name_flag_and_bound(capsys, argv, flag, bound):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be at least {bound}, got {argv[-1]}" in err


# sha256 of the stdout of ``ball -p builtin:<name> --side <side> --policy
# <policy> --radius 11 --format <format>``, recorded before
# graph_invariants counted its profiles and build_ball numbered the
# vertices met without a lookup
EXPORTS_AT_RADIUS_11 = [
    ("M", "right", "closed", "json",
     "0c684d0a8e09eaf93fa65085501b0cea2db50f15a2e19e26e2af5f6cb5f1f701"),
    ("N", "right", "closed", "dot",
     "ae7e5d79e083d9fda8d1bcb8422f533b6230119a3c734abebe10344943aae939"),
    ("M", "left", "with-frontier", "dot",
     "5d3055fb97c6ee7e5b01786b5ee31a310e1e9fa13fdfedf6cc060a0e332c5e8d"),
    ("N", "left", "with-frontier", "json",
     "bd752cb0e91cb012f6a581efcdd8ef20cac4fbfeb8bcb58761982a4ae4490af8"),
]


@pytest.mark.parametrize("name, side, policy, fmt, digest", EXPORTS_AT_RADIUS_11)
def test_ball_exports_at_radius_11_are_pinned(capsys, name, side, policy, fmt, digest):
    code, out, err = run(capsys, "ball", "-p", f"builtin:{name}", "--side", side,
                         "--policy", policy, "--radius", "11", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_iso(capsys):
    code, out, _ = run(capsys, "verify-iso", "--radius", "5")
    assert code == 0
    assert "57 vertices (M ball) and 57 vertices (N ball)" in out
    assert "verify-iso: PASS" in out


def test_verify_iso_radius_zero(capsys):
    code, out, _ = run(capsys, "verify-iso", "--radius", "0")
    assert code == 0


def test_verify_iso_radius_eight(capsys):
    code, out, _ = run(capsys, "verify-iso", "--radius", "8")
    assert code == 0
    assert "318 vertices (M ball) and 318 vertices (N ball)" in out


def test_verify_iso_json(capsys):
    code, out, _ = run(capsys, "verify-iso", "--radius", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for part in ("explicit", "search"):
        assert list(payload[part]) == ["status", "mapping", "witness"]
        assert payload[part]["witness"] is None
    assert payload["explicit"]["status"] == "verified"
    assert payload["search"]["status"] == "isomorphic"
    assert sorted(payload["explicit"]["mapping"]) == list(range(15))
    code, out, _ = run(capsys, "verify-iso", "--radius", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["search"] == {
        "status": "isomorphic", "mapping": [0], "witness": None,
    }


def test_verify_iso_exhausted_budget_names_its_unit(capsys, monkeypatch):
    def small_budget(g1, g2):
        return isomorphism.find_isomorphism(g1, g2, budget=3)

    monkeypatch.setattr(cli, "find_isomorphism", small_budget)
    code, out, _ = run(capsys, "verify-iso", "--radius", "3")
    assert code == 1
    assert "independent search: budget exhausted after 4 expansions\n" in out
    assert out.endswith("verify-iso: FAIL\n")


def test_internal_error_exits_three_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("search produced an invalid certificate: test")

    monkeypatch.setattr(cli, "find_isomorphism", broken)
    code, out, err = run(capsys, "verify-iso", "--radius", "2")
    assert code == 3
    assert err == "internal error: search produced an invalid certificate: test\n"
    assert "Traceback" not in err


def test_truncation_test(capsys):
    for n0 in (2, 5):
        code, out, _ = run(capsys, "truncation-test", "--n0", str(n0))
        assert code == 0
        assert "truncation test: PASS" in out


def test_truncation_test_rejects_small_n0():
    with pytest.raises(SystemExit) as excinfo:
        main(["truncation-test", "--n0", "1"])
    assert excinfo.value.code == 2


def test_left_noniso(capsys):
    code, out, _ = run(capsys, "left-noniso", "--max-radius", "8")
    assert code == 0
    assert "separated at radius 4" in out


def test_left_noniso_insufficient_radius(capsys):
    code, out, _ = run(capsys, "left-noniso", "--max-radius", "2")
    assert code == 1
    assert "not separated" in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# A system that is not confluent, so reduction order decides which of
# several normal forms a word reaches
SCHEMA_AND_RULES = "alphabet a b\nrule b{n} -> where n >= 1\nrule b b -> a\nrule a b a -> b\n"

# stdout of ``reduce -w <word>`` in text and json, recorded before each
# scan resumed where the last rewrite could first matter
REDUCE_OUTPUTS = [
    (
        "builtin:M", "abbbabbabbbbbaab",
        "abbbabbabbbbbaab\n"
        "  -> ababbabbbbbaab  via ab{n}a -> aba (n >= 2) at position 0 (n=3)\n"
        "  -> abababbbbbaab  via ab{n}a -> aba (n >= 2) at position 2 (n=2)\n"
        "  -> abababaab  via ab{n}a -> aba (n >= 2) at position 4 (n=5)\n"
        "abababaab (3 steps)\n",
        '{"input": "abbbabbabbbbbaab", "normal_form": "abababaab", "steps": ['
        '{"rule": "ab{n}a -> aba (n >= 2)", "position": 0, "exponent": 3, '
        '"result": "ababbabbbbbaab"}, '
        '{"rule": "ab{n}a -> aba (n >= 2)", "position": 2, "exponent": 2, '
        '"result": "abababbbbbaab"}, '
        '{"rule": "ab{n}a -> aba (n >= 2)", "position": 4, "exponent": 5, '
        '"result": "abababaab"}]}\n',
    ),
    (
        "builtin:N", "cdddcdcddcdddddcc",
        "cdddcdcddcdddddcc\n"
        "  -> cdcddcdddddcc  via cdddcdc -> cdc at position 0\n"
        "  -> cdcdcdddddcc  via cddc -> cdc at position 2\n"
        "  -> cdcdcdcdcc  via cdddd -> cdc at position 4\n"
        "cdcdcdcdcc (3 steps)\n",
        '{"input": "cdddcdcddcdddddcc", "normal_form": "cdcdcdcdcc", "steps": ['
        '{"rule": "cdddcdc -> cdc", "position": 0, "exponent": null, '
        '"result": "cdcddcdddddcc"}, '
        '{"rule": "cddc -> cdc", "position": 2, "exponent": null, '
        '"result": "cdcdcdddddcc"}, '
        '{"rule": "cdddd -> cdc", "position": 4, "exponent": null, '
        '"result": "cdcdcdcdcc"}]}\n',
    ),
    (
        SCHEMA_AND_RULES, "abbabaabbbab",
        "abbabaabbbab\n"
        "  -> aaabaabbbab  via bb -> a at position 1\n"
        "  -> aababbbab  via aba -> b at position 2\n"
        "  -> abbbbab  via aba -> b at position 1\n"
        "  -> aabbab  via bb -> a at position 1\n"
        "  -> aaaab  via bb -> a at position 2\n"
        "  -> aaaa  via b{n} -> ε (n >= 1) at position 4 (n=1)\n"
        "aaaa (6 steps)\n",
        '{"input": "abbabaabbbab", "normal_form": "aaaa", "steps": ['
        '{"rule": "bb -> a", "position": 1, "exponent": null, "result": "aaabaabbbab"}, '
        '{"rule": "aba -> b", "position": 2, "exponent": null, "result": "aababbbab"}, '
        '{"rule": "aba -> b", "position": 1, "exponent": null, "result": "abbbbab"}, '
        '{"rule": "bb -> a", "position": 1, "exponent": null, "result": "aabbab"}, '
        '{"rule": "bb -> a", "position": 2, "exponent": null, "result": "aaaab"}, '
        '{"rule": "b{n} -> ε (n >= 1)", "position": 4, "exponent": 1, "result": "aaaa"}]}\n',
    ),
]


@pytest.mark.parametrize("presentation, word, text, json_line", REDUCE_OUTPUTS,
                         ids=["M", "N", "file"])
def test_reduce_outputs_are_pinned(capsys, tmp_path, presentation, word, text, json_line):
    if not presentation.startswith("builtin:"):
        path = tmp_path / "system.txt"
        path.write_text(presentation, encoding="utf-8")
        presentation = str(path)
    for fmt, expected in (("text", text), ("json", json_line)):
        argv = ("reduce", "-p", presentation, "-w", word, "--format", fmt)
        assert run(capsys, *argv) == (0, expected, "")


# sha256 of the stdout of ``confluence -p <SCHEMA_AND_RULES>`` after its
# first line, which names the file, recorded before each scan resumed
# where the last rewrite could first matter
CONFLUENCE_NOT_CONFLUENT = "d3236c2de6de263d5bc86e3d819fb28e2e6564e1694ba4d15a0a7b2f6a5c2d25"


def test_confluence_failures_are_pinned(capsys, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SCHEMA_AND_RULES, encoding="utf-8")
    code, out, err = run(capsys, "confluence", "-p", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines(keepends=True)
    assert lines[:4] == [
        f"system: {path} (2 rules, 1 schemas)\n",
        "bounded certificate: schemas instantiated for exponents up to 12\n",
        "critical pairs: 952 (530 overlap, 422 containment)\n",
        "non-joining pair: source bb -> a | b; normal forms a != ε\n",
    ]
    assert len(lines) == 814
    assert sum(line.startswith("non-joining pair: ") for line in lines) == 810
    assert hashlib.sha256("".join(lines[1:]).encode("utf-8")).hexdigest() == (
        CONFLUENCE_NOT_CONFLUENT)


def test_closed_stdout_gives_no_traceback(tmp_path):
    """The reader takes one line and closes the pipe while thousands
    are still to come."""
    path = tmp_path / "system.txt"
    path.write_text(SCHEMA_AND_RULES, encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.Popen(
        [sys.executable, "-m", "cayleyforge", "confluence", "-p", str(path),
         "--schema-bound", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline() == f"system: {path} (2 rules, 1 schemas)\n".encode()
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert (child.wait(), err) == (2, "error: cannot write stdout: Broken pipe\n")
