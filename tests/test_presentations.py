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


@pytest.mark.parametrize(
    "text, message",
    [
        ("rule a -> b", "rule before the alphabet"),
        ("alphabet a b\nalphabet a", "alphabet declared twice"),
        ("alphabet ab", "single characters"),
        ("alphabet a\nrule a a -> a a", "length-reducing"),
        ("alphabet a b\nrule a b{n} a -> a", "needs a 'where"),
        ("alphabet a b\nrule a b a -> a where n >= 2", "without an exponent"),
        ("alphabet a b\nrule a b{n} b{m} -> a where n >= 2", "at most one exponent"),
        ("alphabet a b\nrule a b{n} a -> a where m >= 2", "malformed 'where'"),
        ("alphabet a b\nrule a b{n} a -> a where n >= x", "not an integer"),
        ("alphabet a b\nrule a x -> a", "not in the alphabet"),
        ("alphabet a a", "^line 1: duplicate alphabet symbol"),
        ("alphabet ab c\nrule c c -> c", "^line 1: alphabet symbols"),
        ("alphabet a b\n\nrule a b -> x", "^line 3: symbol 'x' is not in"),
        ("alphabet a b\nfoo a", "unknown declaration"),
        ("", "no alphabet"),
        ("alphabet a b\nrule -> a", "empty left-hand side"),
        ("alphabet a b\nrule a b a", "exactly one '->'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(PresentationError, match=message):
        parse_presentation(text)


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


def test_file_loaded_system_builds_the_builtin_ball(sys_n):
    from cayleyforge import build_ball, certify

    loaded = certify(parse_presentation(N_PRESENTATION))
    assert build_ball(loaded, "right", 5, "closed") == build_ball(
        sys_n, "right", 5, "closed"
    )
