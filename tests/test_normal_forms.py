"""Classifiers, the normal-form bijection, and enumeration."""

import pytest
from hypothesis import given, strategies as st

from cayleyforge import (
    ClassificationError,
    MNormalForm,
    NNormalForm,
    ab_to_cd,
    cd_to_ab,
    classify_m,
    classify_n,
    enumerate_normal_forms,
    is_irreducible,
    is_um_word,
    is_un_word,
    m_to_n,
    n_to_m,
    normal_form,
)
from cayleyforge.rewriting import IncompleteSystemError

import oracles

TAG_PARTNERS = {"NFM1": "NFN1", "NFM2": "NFN2", "NFM3": "NFN3"}


def test_block_word_recognizers():
    assert is_um_word("a")
    assert is_um_word("aabaa")
    assert not is_um_word("")
    assert not is_um_word("ba")
    assert not is_um_word("abba")
    assert is_un_word("cdc")
    assert not is_un_word("cddc")


def test_classify_m_examples():
    assert classify_m("bbb") == MNormalForm(s=3)
    assert classify_m("babab") == MNormalForm(s=1, u="aba", t=1)
    assert classify_m("") == MNormalForm(s=0)
    with pytest.raises(ClassificationError, match="position 0"):
        classify_m("abba")


def test_classify_n_examples():
    assert classify_n("dd") == NNormalForm(p=2)
    assert classify_n("cdddc") == NNormalForm(p=0, v="c", q=1, r=0)
    assert classify_n("cdc") == NNormalForm(p=0, v="cdc")
    with pytest.raises(ClassificationError):
        classify_n("cddc")


@pytest.mark.parametrize(
    "form, kind, word",
    [
        (MNormalForm(2), "NFM1", "bb"),
        (MNormalForm(0, "aba"), "NFM2", "aba"),
        (MNormalForm(1, "aaba", 3), "NFM3", "baababbb"),
        (NNormalForm(3), "NFN1", "ddd"),
        (NNormalForm(1, "cdcc"), "NFN2", "dcdcc"),
        (NNormalForm(0, "c", 0, 3), "NFN3", "cddd"),
        (NNormalForm(2, "c", 2, 1), "NFN3", "ddcdddcdddcd"),
    ],
)
def test_normal_form_kind_and_word(form, kind, word):
    assert (form.kind, form.word()) == (kind, word)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MNormalForm(-1),
        lambda: MNormalForm(0, None, 2),
        lambda: MNormalForm(0, "a", 0),
        lambda: MNormalForm(0, "abba"),
        lambda: NNormalForm(-1),
        lambda: NNormalForm(0, "c", 1),
        lambda: NNormalForm(0, "c", None, 1),
        lambda: NNormalForm(0, "c", 0, 4),
        lambda: NNormalForm(0, "c", 0, 0),
        lambda: NNormalForm(0, None, 1, 0),
        lambda: NNormalForm(0, "cddc"),
    ],
)
def test_invalid_normal_forms_are_refused(make):
    with pytest.raises(ValueError):
        make()


def test_classifier_error_names_the_match(sys_n):
    with pytest.raises(ClassificationError, match="cddc -> cdc at position 1"):
        classify_n("dcddc")


def test_classification_accepts_exactly_irreducibles(sys_m, sys_n):
    for word in oracles.words_up_to("ab", 10):
        if is_irreducible(sys_m, word):
            assert classify_m(word).word() == word
        else:
            with pytest.raises(ClassificationError):
                classify_m(word)
    for word in oracles.words_up_to("cd", 10):
        if is_irreducible(sys_n, word):
            assert classify_n(word).word() == word
        else:
            with pytest.raises(ClassificationError):
                classify_n(word)


def test_relabeling():
    assert ab_to_cd("aba") == "cdc"
    assert ab_to_cd("") == ""
    assert ab_to_cd("aab") == "ccd"
    assert cd_to_ab("ccd") == "aab"


def test_m_to_n_examples():
    assert m_to_n("bb") == "dd"
    assert m_to_n("abbbbb") == "cdddcd"  # t=5 splits as 4*1+1
    assert m_to_n("abbbb") == "cdddc"  # t=4 splits as 4*1+0
    with pytest.raises(ClassificationError):
        m_to_n("abba")


def test_n_to_m_examples():
    assert n_to_m("dc") == "ba"
    assert n_to_m("cdddcd") == "abbbbb"
    assert n_to_m("cdc") == "aba"
    with pytest.raises(ClassificationError):
        n_to_m("cdddd")


def test_phi_matches_the_classifier_formula_up_to_length_12(sys_m, sys_n):
    # the reference reads the paper's decompositions b^s u b^t and
    # d^p v (dddc)^q d^r off the classifiers' fields
    for word in enumerate_normal_forms(sys_m, 12):
        nf = classify_m(word)
        q, r = divmod(nf.t or 0, 4)
        expected = "d" * nf.s + ab_to_cd(nf.u or "") + "dddc" * q + "d" * r
        assert m_to_n(word) == expected, word
    for word in enumerate_normal_forms(sys_n, 12):
        nf = classify_n(word)
        t = 4 * (nf.q or 0) + (nf.r or 0)
        expected = "b" * nf.p + cd_to_ab(nf.v or "") + "b" * t
        assert n_to_m(word) == expected, word


def test_bijection_up_to_length_10(sys_m, sys_n):
    m_words = enumerate_normal_forms(sys_m, 10)
    n_words = enumerate_normal_forms(sys_n, 10)
    assert len(m_words) == len(n_words)  # cardinality match at every length
    images = [m_to_n(w) for w in m_words]
    assert len(set(images)) == len(images)
    assert sorted(images) == sorted(n_words)
    for word, image in zip(m_words, images):
        assert len(image) == len(word)
        assert n_to_m(image) == word
        assert TAG_PARTNERS[classify_m(word).kind] == classify_n(image).kind
    for word in n_words:
        assert m_to_n(n_to_m(word)) == word


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
    from cayleyforge import system_m

    nf = normal_form(system_m(), word)
    image = m_to_n(nf)
    assert len(image) == len(nf)
    assert n_to_m(image) == nf


@given(st.text(alphabet="cd", max_size=30))
def test_roundtrip_from_the_other_side(word):
    from cayleyforge import system_n

    nf = normal_form(system_n(), word)
    assert m_to_n(n_to_m(nf)) == nf
