"""Built-in systems, the truncated family, and the presentation format."""

import pytest

from cayleyforge import (
    PresentationError,
    RewriteRule,
    RuleSchema,
    check_length_reducing,
    is_irreducible,
    load_presentation,
    normal_form,
    parse_presentation,
    system_m,
    system_n,
    truncated_system_m,
)


def test_system_m_shape(sys_m):
    assert sys_m.alphabet == ("a", "b")
    assert sys_m.rules == ()
    assert sys_m.schemas == (RuleSchema("a", "b", 2, "a", "aba"),)
    assert check_length_reducing(sys_m) == ()
    assert normal_form(sys_m, "abba") == "aba"
    assert is_irreducible(sys_m, "abab")


def test_system_n_shape(sys_n):
    assert sys_n.alphabet == ("c", "d")
    assert len(sys_n.rules) == 4
    assert sys_n.schemas == ()
    assert normal_form(sys_n, "cdddd") == "cdc"


def test_truncated_system():
    t5 = truncated_system_m(5)
    assert len(t5.rules) == 4  # exponents 2..5
    assert normal_form(t5, "abbbbbba") == "abbbbbba"  # six b's: irreducible
    assert normal_form(t5, "abbba") == "aba"
    assert len(truncated_system_m(2).rules) == 1
    with pytest.raises(ValueError):
        truncated_system_m(1)


def test_builtins_arrive_certified(sys_m, sys_n):
    assert sys_m.certified_bound == 12
    assert sys_n.certified_bound == 12


def test_load_builtin_names():
    assert load_presentation("builtin:M") is system_m()
    assert load_presentation("builtin:N") is system_n()
    with pytest.raises(PresentationError, match="unknown builtin"):
        load_presentation("builtin:X")


M_PRESENTATION = """\
# the pumped-exponent family
alphabet a b
rule a b{n} a -> a b a where n >= 2
"""

N_PRESENTATION = """\
alphabet c d
rule c d d c -> c d c
rule c d d d d -> c d c
rule c d d d c c -> c d c
rule c d d d c d c -> c d c
"""


def test_parse_schema_presentation(sys_m):
    system = parse_presentation(M_PRESENTATION)
    assert system.alphabet == sys_m.alphabet
    assert system.schemas == sys_m.schemas
    assert not system.is_certified


def test_parse_concrete_presentation(sys_n):
    system = parse_presentation(N_PRESENTATION)
    assert system.rules == sys_n.rules


def test_parse_empty_rhs():
    system = parse_presentation("alphabet a\nrule a a ->\n")
    assert system.rules == (RewriteRule("aa", ""),)


def _error_case(text, message, short):
    """A parse-error case whose test id is ``text-short``, not the full
    message."""
    return pytest.param(text, message, id=f"{text}-{short}")


@pytest.mark.parametrize(
    "text, message",
    [
        _error_case("rule a -> b", "line 1: rule before the alphabet declaration",
                    "rule before the alphabet"),
        _error_case("alphabet a b\nalphabet a", "line 2: alphabet declared twice",
                    "alphabet declared twice"),
        _error_case("alphabet ab",
                    "line 1: alphabet symbols are single characters, got 'ab'",
                    "single characters"),
        # "single characters" is reported before a duplicate, wherever it is
        _error_case("alphabet a a ab",
                    "line 1: alphabet symbols are single characters, got 'ab'",
                    "single characters before duplicate"),
        _error_case("alphabet a ab a",
                    "line 1: alphabet symbols are single characters, got 'ab'",
                    "single characters before duplicate"),
        _error_case("alphabet", "line 1: alphabet needs at least one symbol",
                    "no symbols"),
        _error_case("alphabet a\nrule a a -> a a",
                    "rules must be length-reducing, offending: aa -> aa",
                    "length-reducing"),
        _error_case("alphabet a b\nrule a b a -> a\nrule a b -> a b",
                    "rules must be length-reducing, offending: ab -> ab",
                    "second rule length-reducing"),
        _error_case("alphabet a b\nrule a b{n} a -> a",
                    "line 2: exponent variable {n} needs a 'where n >= k' clause",
                    "needs a 'where"),
        _error_case("alphabet a b\nrule a b a -> a where n >= 2",
                    "line 2: 'where' clause without an exponent variable",
                    "without an exponent"),
        _error_case("alphabet a b\nrule a b{n} b{m} -> a where n >= 2",
                    "line 2: at most one exponent variable per rule",
                    "at most one exponent"),
        _error_case("alphabet a b\nrule a b{n} a -> a where m >= 2",
                    "line 2: malformed 'where' clause, expected 'where n >= k'",
                    "malformed 'where'"),
        _error_case("alphabet a b\nrule a b{n} a -> a where",
                    "line 2: malformed 'where' clause, expected 'where n >= k'",
                    "bare 'where'"),
        _error_case("alphabet a b\nrule a b{n} a -> a where n >= x",
                    "line 2: exponent bound 'x' is not an integer",
                    "not an integer"),
        _error_case("alphabet a b\nrule a b{n} a -> a where n >= 0",
                    "line 2: min_exponent must be at least 1",
                    "exponent bound below 1"),
        _error_case("alphabet a b\nrule a b b{n} a -> a where n >= 2",
                    "line 2: schema prefix may not end with the pumped symbol",
                    "prefix ends with the pumped symbol"),
        _error_case("alphabet a b\nrule a b{n} b a -> a where n >= 2",
                    "line 2: schema suffix may not start with the pumped symbol",
                    "suffix starts with the pumped symbol"),
        _error_case("alphabet a b\nrule ab a -> a",
                    "line 2: left-hand side symbols are single characters, got 'ab'",
                    "left-hand side single characters"),
        _error_case("alphabet a b\nrule a b a -> ab",
                    "line 2: right-hand side symbols are single characters, got 'ab'",
                    "right-hand side single characters"),
        _error_case("alphabet a b\nrule a x -> a",
                    "line 2: symbol 'x' is not in the alphabet {a, b}",
                    "not in the alphabet"),
        _error_case("alphabet a b\nrule a x{n} a -> a where n >= 2",
                    "line 2: symbol 'x' is not in the alphabet {a, b}",
                    "foreign pumped symbol"),
        _error_case("alphabet a b # two letters\nrule a b x -> a # typo",
                    "line 2: symbol 'x' is not in the alphabet {a, b}",
                    "trailing comment"),
        _error_case("alphabet a a", "line 1: duplicate alphabet symbol 'a'",
                    "^line 1: duplicate alphabet symbol"),
        _error_case("alphabet ab c\nrule c c -> c",
                    "line 1: alphabet symbols are single characters, got 'ab'",
                    "^line 1: alphabet symbols"),
        _error_case("alphabet a b\n\nrule a b -> x",
                    "line 3: symbol 'x' is not in the alphabet {a, b}",
                    "^line 3: symbol 'x' is not in"),
        _error_case("alphabet a b\nfoo a", "line 2: unknown declaration 'foo'",
                    "unknown declaration"),
        _error_case("", "no alphabet declaration", "no alphabet"),
        _error_case("alphabet a b\nrule -> a", "line 2: empty left-hand side",
                    "empty left-hand side"),
        _error_case("alphabet a b\nrule a b a", "line 2: a rule needs exactly one '->'",
                    "exactly one '->'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(PresentationError) as excinfo:
        parse_presentation(text)
    assert str(excinfo.value) == message


def test_load_from_file(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text(N_PRESENTATION, encoding="utf-8")
    system = load_presentation(path)
    assert len(system.rules) == 4
    with pytest.raises(PresentationError, match="cannot read"):
        load_presentation(tmp_path / "missing.txt")
    undecodable = tmp_path / "utf16.txt"
    undecodable.write_text("alphabet a b\n", encoding="utf-16")
    with pytest.raises(PresentationError, match="^cannot read .*utf16.txt: "):
        load_presentation(undecodable)


def test_load_from_file_with_byte_order_mark(tmp_path):
    plain = tmp_path / "m.txt"
    plain.write_text(M_PRESENTATION, encoding="utf-8")
    marked = tmp_path / "m-bom.txt"
    marked.write_text(M_PRESENTATION, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_presentation(marked) == load_presentation(plain)


def test_file_loaded_system_builds_the_builtin_ball(sys_n):
    from cayleyforge import build_ball, certify

    loaded = certify(parse_presentation(N_PRESENTATION))
    assert build_ball(loaded, "right", 5, "closed") == build_ball(
        sys_n, "right", 5, "closed"
    )
