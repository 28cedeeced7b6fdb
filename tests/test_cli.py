"""Command-line behaviour: outputs, formats and exit codes."""

import json

import pytest

from cayleyforge import cli
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
    code, _, err = run(capsys, "ball", "-p", str(path), "--radius", "2")
    assert code == 1
    assert "not locally confluent" in err


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
    assert "_nonnegative_int" not in err
    assert "_n0_value" not in err


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
    assert payload["explicit"]["status"] == "verified"
    assert payload["search"]["status"] == "isomorphic"
    assert sorted(payload["explicit"]["mapping"]) == list(range(15))


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
