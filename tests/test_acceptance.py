"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line with its
runtime and enforces the pinned time limit.
"""

import itertools
import math
import random
import time

from svbraid import (
    Equivalent, Kind, X, Y, canonical_form, concat, decompose,
    degree, degree_spectrum, embed_pure_generator, equivalent, eta_hat,
    factor_singular, gauss_of_braid, braid_of_gauss, identity_perm,
    pair_invariants, parse_word, print_word, reassemble_factorization,
    semidirect_multiply, singularity_count, theta, verify_sp_relations,
    virtual_word_of_perm,
)
from svbraid.suites import (random_gauss, random_word, suite_degree_lemma,
                            suite_relations, suite_scalar_preimage, suite_surface)

OMEGA = "r1 s2' t1 r2 s2 t2"


def _timed(num: int, limit: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:2d}: FAIL after {elapsed:.2f}s (limit {limit:.0f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"criterion {num:2d}: {verdict} in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_01_worked_expansion():
    def body():
        fs = eta_hat(parse_word(OMEGA, 3))
        assert [(c, print_word(w)) for w, c in fs.terms()] == [
            (1, "r1 s2' s1 r2 s2 s2"),
            (-1, "r1 s2' s1 r2 s2 s2'"),
            (-1, "r1 s2' s1' r2 s2 s2"),
            (1, "r1 s2' s1' r2 s2 s2'"),
        ]
        assert degree_spectrum(fs) == {-2: 1, 0: 2, 2: 1}
    _timed(1, 1.0, body)


def test_criterion_02_degree_spectrum_lemma():
    def body():
        # 500 words random_word(Random(2), 2..5, 12): 2^d terms, unique
        # extremal degrees s-d and s+d, every other degree strictly between
        report = suite_degree_lemma(5, seed=2)
        assert report.counts() == (500, 0), report.checks
    _timed(2, 10.0, body)


def test_criterion_03_relation_sanity():
    def body():
        # every catalog instance: no screen of `equivalent` separates its
        # sides, and an omega certificate of at most 6 moves
        for n in (2, 3, 4):
            report = suite_relations(n)
            assert report.passed, [c for c in report.checks if not c.passed]
    _timed(3, 30.0, body)


def test_criterion_04_gauss_round_trip():
    def body():
        rng = random.Random(4)
        for _ in range(500):
            g = random_gauss(rng, rng.randint(2, 6), 10)
            assert gauss_of_braid(braid_of_gauss(g)) == g
    _timed(4, 10.0, body)


def test_criterion_05_reverse_round_trip():
    def body():
        rng = random.Random(5)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 3), 6)
            back = braid_of_gauss(gauss_of_braid(w))
            assert isinstance(equivalent(w, back), Equivalent), print_word(w)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 3), 12)
            back = braid_of_gauss(gauss_of_braid(w))
            assert theta(back) == theta(w)
            assert degree(back) == degree(w)
            assert singularity_count(back) == singularity_count(w)
            gw, gb = gauss_of_braid(w), gauss_of_braid(back)
            assert pair_invariants(gw) == pair_invariants(gb)
            assert canonical_form(gw) == canonical_form(gb)
    _timed(5, 60.0, body)


def test_criterion_06_pure_presentation():
    def body():
        for n in (2, 3, 4):
            report = verify_sp_relations(n)
            assert all(isinstance(c.verdict, Equivalent) for c in report.checks)
        for n in range(2, 6):
            for i, j in itertools.permutations(range(1, n + 1), 2):
                for g in (X(i, j), X(i, j, -1), Y(i, j)):
                    assert theta(embed_pure_generator(g, n)) == identity_perm(n)
    _timed(6, 60.0, body)


def test_criterion_07_semidirect_homomorphism():
    def body():
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 4)
            u = random_word(rng, n, 6)
            v = random_word(rng, n, 6)
            assert decompose(concat(u, v)) == semidirect_multiply(
                decompose(u), decompose(v))
        for p in itertools.permutations(range(1, 5)):
            w = virtual_word_of_perm(p)
            assert theta(w) == p
            assert all(g.kind == Kind.VIRT for g in w.letters)
    _timed(7, 5.0, body)


def test_criterion_08_scalar_preimage():
    def body():
        # every word of length 0..6 over s1, s1', r1, t1 (5,461 in all): each
        # is decided, and d >= 1 gives two degrees
        report = suite_scalar_preimage(2)
        assert report.counts() == (7, 0), report.checks
    _timed(8, 30.0, body)


def test_criterion_09_singular_factorization():
    def body():
        rng = random.Random(9)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 4), 6)
            back = reassemble_factorization(factor_singular(w))
            assert isinstance(equivalent(w, back), Equivalent), print_word(w)
        f = factor_singular(parse_word(OMEGA, 3))
        assert [(print_word(c), i) for c, i in f.conjugated_taus] == [
            ("r1 s2'", 1), ("r1 s2' r2 s2", 2)]
    _timed(9, 60.0, body)


def _brute_force_genus_of_one_virtual_crossing() -> int:
    # Hand-enumerated surface for the two-strand braid with one virtual
    # crossing: two annuli, attachment points p1, p2 and q1, q2, bands
    # p1-q2 and p2-q1 made disjoint away from the circles.  Boundary
    # circuits traced directly.
    rot = {"p1": "p2", "p2": "p1", "q1": "q2", "q2": "q1"}
    mate = {"p1": "q2", "q2": "p1", "p2": "q1", "q1": "p2"}
    seen: set = set()
    walks = 0
    for start in rot:
        if start in seen:
            continue
        walks += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = rot[mate[d]]
    boundaries = walks + 2       # each annulus keeps one free circle
    chi = 0 + 0 - 2              # two annuli, two bands
    capped = chi + (boundaries - 2)
    assert capped % 2 == 0
    return -capped // 2


def test_criterion_10_surface():
    def body():
        from svbraid import genus
        # genus 0 for the empty words on 1..5 strands and for 100 crossing-only
        # words random_word(Random(10), 2..5, 10); Euler characteristic two
        # ways on those and on 200 words of up to 12 letters
        report = suite_surface(5, seed=10)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert genus(parse_word("r1", 2)) == _brute_force_genus_of_one_virtual_crossing()
    _timed(10, 10.0, body)
