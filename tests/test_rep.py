from itertools import permutations, product

from hypothesis import given, settings, strategies as st

import svbraid.words as words
from svbraid import (Arrow, ArrowKind, BraidWord, Distinct, GaussWord, Generator,
                     Kind, braid_of_gauss, burau, embed_pure_word, equivalent,
                     gauss, parse_word, relation_catalog, sp_relation_instances)
from svbraid.rep import P


def test_catalog_relations_preserve_burau():
    for n in range(2, 8):
        for inst in relation_catalog(n):
            assert burau(inst.lhs) == burau(inst.rhs), (n, inst)


def test_burau_of_small_words():
    assert burau(BraidWord(3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert burau(parse_word("r2", 3)) == ((1, 0, 0), (0, 0, 5), (0, pow(5, P - 2, P), 0))
    assert burau(parse_word("s1", 2)) == ((P - 2, 3), (1, 0))
    assert burau(parse_word("s1 s1'", 2)) == burau(BraidWord(2))


@st.composite
def _words(draw, max_n=5, max_len=8):
    n = draw(st.integers(2, max_n))
    letters = draw(st.lists(st.tuples(st.sampled_from(list(Kind)),
                                      st.integers(1, n - 1)), max_size=max_len))
    return BraidWord(n, tuple(Generator(k, i) for k, i in letters))


@settings(max_examples=60, deadline=None)
@given(_words(), st.lists(st.integers(min_value=0), min_size=1, max_size=6))
def test_random_rewrites_preserve_burau(w, picks):
    start = burau(w)
    for pick in picks:
        moves = words._byte_neighbors(words.encode_letters(w.letters),
                                      words._rewrite_rules(w.n), len(w) + 2)
        w = BraidWord(w.n, words.decode_letters(moves[pick % len(moves)][-1]))
        assert burau(w) == start


def test_burau_screen_settles_without_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(words, "_word_search", no_search)
    u, v = parse_word("s1 t2", 3), parse_word("r1 s1 r1 t2", 3)
    verdict = equivalent(u, v)
    assert isinstance(verdict, Distinct) and verdict.invariant == "burau"
    (r, c, a), (r2, c2, b) = verdict.left, verdict.right
    assert (r, c) == (r2, c2) and a != b
    assert burau(u)[r - 1][c - 1] == a and burau(v)[r - 1][c - 1] == b


def test_burau_separates_the_forbidden_move(monkeypatch):
    # F1, r_i s_{i+1} s_i / s_{i+1} s_i r_{i+1}, holds in the welded quotient
    # only: the virtual block [[0, u], [1/u, 0]] tells the sides apart
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(words, "_word_search", no_search)
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            u = parse_word(f"r{i} s{i + 1} s{i}", n)
            v = parse_word(f"s{i + 1} s{i} r{i + 1}", n)
            verdict = equivalent(u, v)
            assert isinstance(verdict, Distinct) and verdict.invariant == "burau", (n, i)


def test_omega_moves_preserve_burau():
    # every diagram with two or three arrows at n=3; no insertions, since
    # they are the inverses of cancellations already checked
    arrows = [Arrow(t, h, k) for t, h in permutations(range(1, 4), 2) for k in ArrowKind]
    moves = 0
    for size in (2, 3):
        for chosen in product(arrows, repeat=size):
            g = GaussWord(3, chosen)
            m = burau(braid_of_gauss(g))
            for *step, child in gauss._omega_moves(g.arrows, range(1, 4), len(g)):
                assert burau(braid_of_gauss(GaussWord(3, child))) == m, (g.arrows, step)
                moves += 1
    assert moves == 1380


def test_pure_relations_preserve_burau():
    for n in (3, 4):
        for family, lhs, rhs in sp_relation_instances(n):
            assert burau(embed_pure_word(lhs)) == burau(embed_pure_word(rhs)), \
                (family, str(lhs), str(rhs))
