import math
import random

import pytest

from svbraid import (
    BraidWord, Distinct, Equivalent, FormalSum, Generator, Kind, Unknown, degree,
    degree_spectrum, eta, eta_hat, eta_hat_expansion, free_reduce, parse_word,
    print_word, replay_trace, scalar_preimage_check, singularity_count,
)
from svbraid.suites import random_word

OMEGA = "r1 s2' t1 r2 s2 t2"


def test_expansion_of_singularity_free_word_is_itself():
    w = parse_word("s1 r2 s2'", 3)
    fs = eta_hat(w)
    assert list(fs.terms()) == [(w, 1)]
    assert degree_spectrum(fs) == {0: 1}


def test_worked_expansion():
    fs = eta_hat(parse_word(OMEGA, 3))
    got = [(c, print_word(w)) for w, c in fs.terms()]
    assert got == [
        (1, "r1 s2' s1 r2 s2 s2"),
        (-1, "r1 s2' s1 r2 s2 s2'"),
        (-1, "r1 s2' s1' r2 s2 s2"),
        (1, "r1 s2' s1' r2 s2 s2'"),
    ]
    assert degree_spectrum(fs) == {-2: 1, 0: 2, 2: 1}


def test_expansion_order_varies_leftmost_singularity_slowest():
    signs = [sign for sign, _ in eta_hat_expansion(parse_word("t1 t1 t1", 2))]
    assert signs == [1, -1, -1, 1, -1, 1, 1, -1]


def test_repeated_singular_letters_do_not_merge():
    fs = eta_hat(parse_word("t1 t1", 2))
    assert len(fs) == 4
    assert degree_spectrum(fs) == {-2: 1, 0: 2, 2: 1}


def test_spectrum_is_binomial():
    rng = random.Random(13)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5), 10)
        d = singularity_count(w)
        s = degree(w)
        spectrum = degree_spectrum(eta_hat(w))
        assert spectrum == {s + d - 2 * k: math.comb(d, k) for k in range(d + 1)}


def _expand_by_hand(w):
    """(word, sign) branches built letter by letter: each singular letter
    splits every branch so far into its positive then its negative
    resolution, the negative one with the opposite sign."""
    branches = [((), 1)]
    for g in w.letters:
        if g.kind == Kind.SING:
            branches = [(letters + (Generator(kind, g.index),), sign * flip)
                        for letters, sign in branches
                        for kind, flip in ((Kind.POS, 1), (Kind.NEG, -1))]
        else:
            branches = [(letters + (g,), sign) for letters, sign in branches]
    return [(BraidWord(w.n, letters), sign) for letters, sign in branches]


def test_eta_hat_is_the_exact_expansion():
    rng = random.Random(18)
    for n in range(2, 7):
        for d in range(9):
            letters = list(random_word(rng, n, 12, (Kind.POS, Kind.NEG, Kind.VIRT)).letters)
            for _ in range(d):
                letters.insert(rng.randint(0, len(letters)),
                               Generator(Kind.SING, rng.randint(1, n - 1)))
            w = BraidWord(n, tuple(letters))
            assert singularity_count(w) == d
            terms = list(eta_hat(w).terms())
            assert terms == _expand_by_hand(w)
            assert len(terms) == 2 ** d
            assert all(type(c) is int and abs(c) == 1 for _, c in terms)
            assert [(c, t) for t, c in terms] == list(eta_hat_expansion(w))


def test_degree_spectrum_of_a_general_sum():
    """Terms merged by ``add``, one cancelled to zero and coefficients
    above 1 in absolute value: each degree is weighted by |coefficient|."""
    p, q, r, z = (parse_word(t, 3) for t in ("s1 s2", "s1' r2", "r1", "s2 s2 s1"))
    fs = FormalSum(3, [(p, 2), (q, -1), (p, 1), (r, 4), (z, 5), (q, -2), (z, -5)])
    assert list(fs.terms()) == [(p, 3), (q, -3), (r, 4)]
    assert degree_spectrum(fs) == {-1: 3, 0: 4, 2: 3}
    assert degree_spectrum(FormalSum(3)) == {}


def test_expansion_size_cap():
    w = BraidWord(2, parse_word("t1", 2).letters * 21)
    with pytest.raises(ValueError):
        eta_hat(w)
    small = BraidWord(2, parse_word("t1", 2).letters * 3)
    assert len(eta_hat(small)) == 8


def test_eta_rejects_virtual_letters():
    with pytest.raises(ValueError) as exc:
        eta(parse_word("s1 r1 t1", 2))
    assert "virtual" in str(exc.value)
    fs = eta(parse_word("s1 t1", 2))
    assert len(fs) == 2


def test_formal_sum_arithmetic():
    fs = FormalSum(2)
    w = parse_word("s1", 2)
    fs.add(w, 2)
    fs.add(w, -2)
    assert len(fs) == 0 and fs.coefficient(w) == 0
    fs.add(w, 3)
    assert fs.coefficient(w) == 3
    with pytest.raises(ValueError):
        fs.add(parse_word("s1", 3), 1)
    with pytest.raises(ValueError):
        fs.add(parse_word("t1", 2), 1)
    for coeff in (1.5, True, "1"):
        with pytest.raises(ValueError):
            fs.add(w, coeff)


def test_formal_sum_terms_are_the_added_words():
    fs = FormalSum(3)
    u, v = parse_word("s1 r2", 3), parse_word("s2'", 3)
    fs.add(u, 2)
    fs.add(v, -1)
    assert [(w, c) for w, c in fs.terms()] == [(u, 2), (v, -1)]
    assert all(w is added for (w, _), added in zip(fs.terms(), (u, v)))


def test_formal_sum_keys_on_strand_count():
    fs = FormalSum(3)
    w = parse_word("s1", 3)
    fs.add(w, 1)
    assert fs.coefficient(w) == 1
    assert fs.coefficient(BraidWord(4, w.letters)) == 0


def test_formal_sum_equality_ignores_order():
    a, b = FormalSum(2), FormalSum(2)
    u, v = parse_word("s1", 2), parse_word("r1", 2)
    a.add(u, 1)
    a.add(v, -1)
    b.add(v, -1)
    b.add(u, 1)
    assert a == b


def test_scalar_preimage_examples():
    for text in ("e", "s1 s1'", "r1 r1"):
        assert isinstance(scalar_preimage_check(parse_word(text, 2)), Equivalent), text
    for text in ("r1", "t1", "s1 s1"):
        assert isinstance(scalar_preimage_check(parse_word(text, 2)), Distinct), text


def test_scalar_preimage_beyond_free_reduction():
    # freely reduced, yet equal to e by the braid relation
    w = parse_word("s1 s2 s1 s2' s1' s2'", 3)
    assert free_reduce(w) == w
    verdict = scalar_preimage_check(w)
    assert isinstance(verdict, Equivalent)
    assert replay_trace(w, verdict.trace) == BraidWord(3)


def test_scalar_preimage_matches_reduction():
    # a word that free-reduces to e is Equivalent, and every word is decided
    rng = random.Random(17)
    for _ in range(300):
        w = random_word(rng, rng.randint(2, 4), 8)
        verdict = scalar_preimage_check(w)
        assert not isinstance(verdict, Unknown), print_word(w)
        if len(free_reduce(w)) == 0:
            assert isinstance(verdict, Equivalent), print_word(w)
