import itertools
import random

import pytest

from svbraid import (
    Arrow, ArrowKind, BraidWord, Equivalent, PureGenerator, PureWord,
    SemidirectPair, X, Y, compose_perms, concat, decompose, degree,
    embed_pure_generator, embed_pure_word, equivalent, factor_singular,
    free_reduce, gauss_of_braid, identity_perm, parse_pure_word, parse_word,
    print_pure_word, print_word, reassemble_factorization, reassemble_pair,
    semidirect_multiply, singularity_count, sp_relation_instances, theta,
    verify_sp_relations,
)
from svbraid import gauss, pure
from svbraid.gauss import GaussWord, move_shapes
from svbraid.suites import random_word

OMEGA = "r1 s2' t1 r2 s2 t2"


def test_pure_word_parse_print():
    for text in ("e", "X+1,2", "X-2,1", "Y1,3", "X+1,2 Y2,3 X-3,1"):
        p = parse_pure_word(text, 3)
        assert print_pure_word(p) == text
    with pytest.raises(ValueError):
        parse_pure_word("X1,2", 3)
    with pytest.raises(ValueError):
        parse_pure_word("Y1,1", 3)
    with pytest.raises(ValueError):
        parse_pure_word("Y1,4", 3)
    # as for braid words, the empty word is written 'e'
    for blank in ("", "   "):
        with pytest.raises(ValueError, match="written 'e'"):
            parse_pure_word(blank, 3)
    with pytest.raises(TypeError):
        parse_pure_word(5, 2)
    letters = (X(1, 2), Y(3, 1))
    assert PureWord(3, letters).letters is letters
    # one input format: a tuple of PureGenerators of an ArrowKind
    for bad in (((1, 2, 0),), [X(1, 2)], (Arrow(1, 2, ArrowKind.POS),),
                (PureGenerator(1, 2, 7),), (PureGenerator(1.0, 2, ArrowKind.POS),),
                (PureGenerator(1, True, ArrowKind.POS),)):
        with pytest.raises(ValueError):
            PureWord(3, bad)
    with pytest.raises(ValueError):
        PureWord(3.0)


def test_generator_constructors():
    assert X(1, 2).kind == ArrowKind.POS
    assert X(1, 2, -1).kind == ArrowKind.NEG
    assert Y(2, 1).kind == ArrowKind.SING
    with pytest.raises(ValueError):
        X(1, 1)


def test_embed_examples():
    assert print_word(embed_pure_generator(X(1, 2), 2)) == "s1 r1"
    assert print_word(embed_pure_generator(Y(1, 2), 2)) == "t1 r1"
    g = gauss_of_braid(embed_pure_generator(X(2, 1, -1), 3))
    assert g.arrows == (Arrow(2, 1, ArrowKind.NEG),)
    assert g.perm == (1, 2, 3)


def test_embedding_lands_in_the_kernel():
    for n in range(2, 6):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for g in (X(i, j), X(i, j, -1), Y(i, j)):
                assert theta(embed_pure_generator(g, n)) == identity_perm(n)


def test_embedding_is_gauss_faithful():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 5)
        letters = []
        for _ in range(rng.randint(0, 5)):
            i, j = rng.sample(range(1, n + 1), 2)
            letters.append(rng.choice([X(i, j), X(i, j, -1), Y(i, j)]))
        p = PureWord(n, tuple(letters))
        g = gauss_of_braid(embed_pure_word(p))
        assert g.arrows == tuple(Arrow(*letter) for letter in letters)
        assert g.perm == identity_perm(n)


def test_decompose_reassemble_certified():
    rng = random.Random(29)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 3), 6)
        pair = decompose(w)
        assert theta(embed_pure_word(pair.pure)) == identity_perm(w.n)
        assert pair.perm == theta(w)
        v = equivalent(w, reassemble_pair(pair))
        assert isinstance(v, Equivalent)


def test_decompose_invariants_at_larger_lengths():
    from svbraid import canonical_form
    rng = random.Random(71)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 4), 12)
        back = reassemble_pair(decompose(w))
        assert theta(back) == theta(w)
        assert degree(back) == degree(w)
        assert singularity_count(back) == singularity_count(w)
        assert canonical_form(gauss_of_braid(back)) == canonical_form(gauss_of_braid(w))


def test_semidirect_multiply_is_a_homomorphism():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 4)
        u = random_word(rng, n, 6)
        v = random_word(rng, n, 6)
        lhs = decompose(concat(u, v))
        rhs = semidirect_multiply(decompose(u), decompose(v))
        assert lhs == rhs


def test_semidirect_identity_and_perm_action():
    n = 3
    e = SemidirectPair(PureWord(n, ()), identity_perm(n))
    a = decompose(parse_word("s1 t2 r1", n))
    assert semidirect_multiply(e, a) == a
    assert semidirect_multiply(a, e) == a
    u, v = parse_word("r1", 3), parse_word("t1", 3)
    prod = semidirect_multiply(decompose(u), decompose(v))
    assert prod.perm == compose_perms(theta(u), theta(v))


def test_sp_instance_counts():
    by_family = {}
    for label, lhs, rhs in sp_relation_instances(4):
        fam = label.split("-")[0]
        by_family[fam] = by_family.get(fam, 0) + 1
    assert by_family == {"SP1": 24, "SP2": 48, "SP3": 108, "SP4": 24, "SP5": 48}


def test_verify_sp_relations_small():
    report = verify_sp_relations(3)
    assert report.passed
    labels = [c.label for c in report.checks]
    assert labels == sorted(labels)


def test_pure_words_are_their_embedded_diagrams():
    # verify_sp_relations reads a pure word's letters as its diagram's arrows
    for n in (3, 4):
        for _, lhs, rhs in sp_relation_instances(n):
            for p in (lhs, rhs):
                diagram = GaussWord(n, tuple(Arrow(*a) for a in p.letters))
                assert gauss_of_braid(embed_pure_word(p)) == diagram, str(p)


def test_verify_sp_relations_builds_no_diagram_from_a_word(monkeypatch):
    move_shapes()  # cached: the move table is read off catalog diagrams once
    calls = []
    build = gauss.gauss_of_braid

    def counting(w):
        calls.append(w)
        return build(w)

    for module in (gauss, pure):
        monkeypatch.setattr(module, "gauss_of_braid", counting)
    assert verify_sp_relations(3).passed
    assert calls == []


def test_factor_singular_worked_example():
    f = factor_singular(parse_word(OMEGA, 3))
    assert [(print_word(c), i) for c, i in f.conjugated_taus] == [
        ("r1 s2'", 1), ("r1 s2' r2 s2", 2)]
    assert print_word(f.virtual_part) == "r1 s2' r2 s2"
    assert print_word(free_reduce(reassemble_factorization(f))) == OMEGA


def test_factor_singular_trivial_cases():
    f = factor_singular(parse_word("t1", 2))
    assert f.conjugated_taus == ((BraidWord(2), 1),)
    assert f.virtual_part == BraidWord(2)
    f = factor_singular(parse_word("s1 r1", 2))
    assert f.conjugated_taus == ()
    assert print_word(f.virtual_part) == "s1 r1"


def test_factorization_reassembles_to_reduction():
    rng = random.Random(83)
    for _ in range(150):
        w = random_word(rng, rng.randint(2, 4), 10)
        back = reassemble_factorization(factor_singular(w))
        assert free_reduce(back) == free_reduce(w)
