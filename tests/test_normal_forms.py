"""The normal-form lemma, φ, and enumeration."""

import pytest
from hypothesis import given, strategies as st

from cayleyforge import (
    ab_to_cd,
    enumerate_normal_forms,
    is_irreducible,
    normal_form,
    system_m,
    system_n,
)
from cayleyforge.normal_forms import phi
from cayleyforge.rewriting import IncompleteSystemError

import oracles
from oracles import M_NORMAL_FORM, N_NORMAL_FORM

TAG_PARTNERS = {"NFM1": "NFN1", "NFM2": "NFN2", "NFM3": "NFN3"}


def test_block_word_recognizers():
    def is_block(pattern, group, word):
        match = pattern.fullmatch(word)
        return match is not None and match[group] == word

    assert is_block(M_NORMAL_FORM, "u", "a")
    assert is_block(M_NORMAL_FORM, "u", "aabaa")
    assert not is_block(M_NORMAL_FORM, "u", "")
    assert not is_block(M_NORMAL_FORM, "u", "ba")
    assert not is_block(M_NORMAL_FORM, "u", "abba")
    assert is_block(N_NORMAL_FORM, "v", "cdc")
    assert not is_block(N_NORMAL_FORM, "v", "cddc")


def test_classify_m_examples():
    assert M_NORMAL_FORM.fullmatch("bbb").groupdict() == {"s": "bbb", "u": None, "t": None}
    assert M_NORMAL_FORM.fullmatch("babab").groupdict() == {"s": "b", "u": "aba", "t": "b"}
    assert M_NORMAL_FORM.fullmatch("").groupdict() == {"s": "", "u": None, "t": None}
    assert M_NORMAL_FORM.fullmatch("abba") is None


def test_classify_n_examples():
    assert N_NORMAL_FORM.fullmatch("dd").groupdict() == {"p": "dd", "v": None, "tail": None}
    assert N_NORMAL_FORM.fullmatch("cdddc").groupdict() == {"p": "", "v": "c", "tail": "dddc"}
    assert N_NORMAL_FORM.fullmatch("cdc").groupdict() == {"p": "", "v": "cdc", "tail": ""}
    assert N_NORMAL_FORM.fullmatch("cddc") is None


@pytest.mark.parametrize(
    "form, kind, word",
    [
        ({"s": "bb", "u": None, "t": None}, "NFM1", "bb"),
        ({"s": "", "u": "aba", "t": ""}, "NFM2", "aba"),
        ({"s": "b", "u": "aaba", "t": "bbb"}, "NFM3", "baababbb"),
        ({"p": "ddd", "v": None, "tail": None}, "NFN1", "ddd"),
        ({"p": "d", "v": "cdcc", "tail": ""}, "NFN2", "dcdcc"),
        ({"p": "", "v": "c", "tail": "ddd"}, "NFN3", "cddd"),
        ({"p": "dd", "v": "c", "tail": "dddcdddcd"}, "NFN3", "ddcdddcdddcd"),
    ],
)
def test_normal_form_kind_and_word(form, kind, word):
    if kind.startswith("NFM"):
        pattern, kind_of = M_NORMAL_FORM, oracles.m_kind
    else:
        pattern, kind_of = N_NORMAL_FORM, oracles.n_kind
    assert (pattern.fullmatch(word).groupdict(), kind_of(word)) == (form, kind)


def test_classification_accepts_exactly_irreducibles(sys_m, sys_n):
    # the patterns against the rules as written, by the brute-force
    # filter, with no library code on either side
    for system, pattern, bound in ((sys_m, M_NORMAL_FORM, 12), (sys_n, N_NORMAL_FORM, 1)):
        expected = oracles.irreducible_words_by_filter(system, bound, 10)
        alphabet = "".join(system.alphabet)
        matched = [w for w in oracles.words_up_to(alphabet, 10) if pattern.fullmatch(w)]
        assert matched == expected


def test_relabeling():
    assert ab_to_cd("aba") == "cdc"
    assert ab_to_cd("") == ""
    assert ab_to_cd("aab") == "ccd"


def test_m_to_n_examples():
    assert phi("bb") == "dd"
    assert phi("abbbbb") == "cdddcd"  # t=5 splits as 4*1+1
    assert phi("abbbb") == "cdddc"  # t=4 splits as 4*1+0


def test_n_to_m_examples():
    assert oracles.phi_inverse("dc") == "ba"
    assert oracles.phi_inverse("cdddcd") == "abbbbb"
    assert oracles.phi_inverse("cdc") == "aba"


def test_phi_matches_the_classifier_formula_up_to_length_12(sys_m):
    # the reference reads the paper's decomposition b^s u b^t off the
    # pattern's groups, and writes d^s u-bar (dddc)^q d^r with t = 4q + r
    for word in enumerate_normal_forms(sys_m, 12):
        match = M_NORMAL_FORM.fullmatch(word)
        q, r = divmod(len(match["t"] or ""), 4)
        expected = "d" * len(match["s"]) + ab_to_cd(match["u"] or "") + "dddc" * q + "d" * r
        assert phi(word) == expected, word


def test_bijection_up_to_length_10(sys_m, sys_n):
    m_words = enumerate_normal_forms(sys_m, 10)
    n_words = enumerate_normal_forms(sys_n, 10)
    assert len(m_words) == len(n_words)  # cardinality match at every length
    images = [phi(w) for w in m_words]
    assert len(set(images)) == len(images)
    assert sorted(images) == sorted(n_words)
    for word, image in zip(m_words, images):
        assert len(image) == len(word)
        assert oracles.phi_inverse(image) == word
        assert TAG_PARTNERS[oracles.m_kind(word)] == oracles.n_kind(image)
    for word in n_words:
        assert phi(oracles.phi_inverse(word)) == word


def test_cardinalities_match_at_every_length(sys_m, sys_n):
    m_words = enumerate_normal_forms(sys_m, 10)
    n_words = enumerate_normal_forms(sys_n, 10)
    for length in range(11):
        count_m = sum(1 for w in m_words if len(w) == length)
        count_n = sum(1 for w in n_words if len(w) == length)
        assert count_m == count_n


def test_enumeration_counts_and_order(sys_m, sys_n):
    assert enumerate_normal_forms(sys_m, 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert len(enumerate_normal_forms(sys_m, 4)) == 30
    assert len(enumerate_normal_forms(sys_n, 5)) == 57


def test_enumeration_matches_filter_oracle(sys_m, sys_n):
    for system, bound in ((sys_m, 12), (sys_n, 1)):
        for max_len in (0, 3, 6, 8):
            expected = oracles.irreducible_words_by_filter(system, bound, max_len)
            assert enumerate_normal_forms(system, max_len) == expected


def test_enumeration_requires_certificate(sys_m):
    from cayleyforge import RewriteRule, RewritingSystem

    bare = RewritingSystem(("a", "b"), (RewriteRule("ab", "a"),))
    with pytest.raises(IncompleteSystemError):
        enumerate_normal_forms(bare, 3)
    with pytest.raises(ValueError):
        enumerate_normal_forms(sys_m, -1)


@given(st.text(alphabet="ab", max_size=30))
def test_roundtrip_on_arbitrary_reduced_words(word):
    nf = normal_form(system_m(), word)
    image = phi(nf)
    assert M_NORMAL_FORM.fullmatch(nf)
    assert N_NORMAL_FORM.fullmatch(image)
    assert is_irreducible(system_n(), image)
    assert len(image) == len(nf)
    assert oracles.phi_inverse(image) == nf


@given(st.text(alphabet="cd", max_size=30))
def test_roundtrip_from_the_other_side(word):
    nf = normal_form(system_n(), word)
    assert phi(oracles.phi_inverse(nf)) == nf
