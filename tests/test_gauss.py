import json
import random
from itertools import permutations

import pytest

from svbraid import (
    Arrow, ArrowKind, BraidWord, Distinct, Equivalent, GaussWord, TraceStep,
    braid_of_gauss, canonical_form, canonical_form_trace, gauss_of_braid,
    omega_equivalent, pair_invariants, parse_word, print_word,
    relation_catalog, replay_omega_trace, theta,
)
from svbraid import gauss
from svbraid.cli import run
from svbraid.suites import random_gauss, random_word
from svbraid.words import Budget, Unknown, screen


def test_gauss_of_braid_examples():
    g = gauss_of_braid(parse_word("s1 t2", 3))
    assert g.arrows == (Arrow(1, 2, ArrowKind.POS), Arrow(1, 3, ArrowKind.SING))
    assert g.perm == (3, 1, 2)
    g = gauss_of_braid(parse_word("r1", 2))
    assert g.arrows == ()
    assert g.perm == (2, 1)
    g = gauss_of_braid(parse_word("s1'", 2))
    assert g.arrows == (Arrow(2, 1, ArrowKind.NEG),)


def test_gauss_perm_matches_theta():
    rng = random.Random(23)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5), 10)
        assert gauss_of_braid(w).perm == theta(w)


def test_gauss_word_validation():
    with pytest.raises(ValueError):
        GaussWord(2, (Arrow(1, 1, ArrowKind.POS),))
    with pytest.raises(ValueError):
        GaussWord(2, (Arrow(1, 3, ArrowKind.POS),))
    with pytest.raises(ValueError):
        GaussWord(2, (), (2, 2))
    assert GaussWord(3, ()).perm == (1, 2, 3)
    arrows = (Arrow(1, 2, ArrowKind.POS), Arrow(2, 1, ArrowKind.SING))
    assert GaussWord(2, arrows).arrows is arrows
    # one input format: a tuple of Arrows of an ArrowKind
    for bad in (((1, 2, 0),), [arrows[0]], (Arrow(1, 2, 7),)):
        with pytest.raises(ValueError):
            GaussWord(2, bad)
    # strand counts, strands and permutation entries are ints, never bools
    for n in (2.0, True, "2"):
        with pytest.raises(ValueError):
            GaussWord(n, (), (1, 2))
    for tail in (1.5, 1.0, True):
        with pytest.raises(ValueError):
            GaussWord(2, (Arrow(tail, 2, ArrowKind.POS),))
    for perm in ((2.0, 1.0), (True, 2)):
        with pytest.raises(ValueError):
            GaussWord(2, (), perm)


def test_braid_of_gauss_is_section():
    rng = random.Random(31)
    for _ in range(300):
        g = random_gauss(rng, rng.randint(2, 6), 10)
        assert gauss_of_braid(braid_of_gauss(g)) == g


def test_braid_of_gauss_example():
    w = braid_of_gauss(gauss_of_braid(parse_word("r2 r1 s1", 3)))
    assert print_word(w) == "r1 r2 s2 r1 r2"


def test_roundtrip_fixes_virtual_free_words():
    from svbraid import Kind
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 8, kinds=(Kind.POS, Kind.NEG, Kind.SING))
        assert braid_of_gauss(gauss_of_braid(w)) == w


def test_pair_invariants_example():
    g = gauss_of_braid(parse_word("s1 t2 s1'", 3))
    assert pair_invariants(g) == {(1, 2): (1, 0), (1, 3): (0, 1), (2, 3): (-1, 0)}
    assert pair_invariants(gauss_of_braid(parse_word("s1 s1'", 2))) == {}


def _two_loop_braid_of_gauss(g):
    """Reference section: one routing loop per arrow orientation, each
    finding a strand's slot with ``list.index``."""
    from svbraid import compose_perms, rho, sigma, tau, virtual_word_of_perm

    pos = list(range(1, g.n + 1))
    letters = []

    def swap(i):
        letters.append(rho(i))
        pos[i - 1], pos[i] = pos[i], pos[i - 1]

    for ar in g.arrows:
        if ar.kind == ArrowKind.NEG:
            while pos.index(ar.head) != pos.index(ar.tail) - 1:
                sh, st = pos.index(ar.head) + 1, pos.index(ar.tail) + 1
                swap(sh if sh < st - 1 else sh - 1)
            i = pos.index(ar.head) + 1
            letters.append(sigma(i, -1))
        else:
            while pos.index(ar.head) != pos.index(ar.tail) + 1:
                sh, st = pos.index(ar.head) + 1, pos.index(ar.tail) + 1
                swap(sh - 1 if sh > st + 1 else sh)
            i = pos.index(ar.tail) + 1
            letters.append(sigma(i) if ar.kind == ArrowKind.POS else tau(i))
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    tail = virtual_word_of_perm(compose_perms(tuple(pos), g.perm))
    return BraidWord(g.n, tuple(letters) + tail.letters)


def _two_dict_pair_invariants(g):
    """Reference pair invariants: writhe and singular counts kept apart,
    merged over the sorted union of their keys."""
    writhe, sing = {}, {}
    for a in g.arrows:
        key = (min(a.tail, a.head), max(a.tail, a.head))
        if a.kind == ArrowKind.SING:
            sing[key] = sing.get(key, 0) + 1
        else:
            writhe[key] = writhe.get(key, 0) + (1 if a.kind == ArrowKind.POS else -1)
    out = {}
    for key in sorted(set(writhe) | set(sing)):
        w, s = writhe.get(key, 0), sing.get(key, 0)
        if w or s:
            out[key] = (w, s)
    return out


def test_section_and_pair_invariants_match_the_references():
    rng = random.Random(41)
    for _ in range(700):
        n = rng.randint(2, 8)
        for g in (random_gauss(rng, n, 12), gauss_of_braid(random_word(rng, n, 14))):
            w = braid_of_gauss(g)
            assert w.letters == _two_loop_braid_of_gauss(g).letters
            assert gauss_of_braid(w) == g
            got, want = pair_invariants(g), _two_dict_pair_invariants(g)
            assert list(got.items()) == list(want.items())  # same keys in the same order


def test_dict_roundtrip():
    # a diagram's JSON form, as `svb from-gauss` reads it and `svb to-gauss`
    # writes it, comes back unchanged through the diagram's section
    rng = random.Random(43)
    for _ in range(50):
        g = random_gauss(rng, rng.randint(2, 5), 6)
        diagram = {"n": g.n,
                   "arrows": [{"tail": a.tail, "head": a.head, "kind": "+-s"[a.kind]}
                              for a in g.arrows],
                   "perm": list(g.perm)}
        code, word = run(["from-gauss", json.dumps(diagram)])
        assert code == 0
        code, out = run(["to-gauss", "--n", str(g.n), word.strip(), "--format", "json"])
        assert code == 0 and json.loads(out) == diagram
    # an unknown arrow kind is a domain error
    code, out = run(["from-gauss", json.dumps({"n": 2, "arrows": [{"tail": 1, "head": 2, "kind": "?"}],
                                               "perm": [1, 2]})])
    assert code == 1 and out == ""


def test_canonical_form_sorts_disjoint_arrows():
    g = GaussWord(4, (Arrow(3, 4, ArrowKind.POS), Arrow(1, 2, ArrowKind.POS)))
    c, trace = canonical_form_trace(g)
    assert c.arrows == (Arrow(1, 2, ArrowKind.POS), Arrow(3, 4, ArrowKind.POS))
    assert replay_omega_trace(g, trace) == c
    assert canonical_form(c) == c


def _commutation_class(arrows):
    """Every arrow sequence reached by swapping adjacent arrows on disjoint
    strands, found by exhaustive search."""
    seen, todo = {arrows}, [arrows]
    while todo:
        state = todo.pop()
        for p in range(len(state) - 1):
            a, b = state[p], state[p + 1]
            if not {a.tail, a.head} & {b.tail, b.head}:
                child = state[:p] + (b, a) + state[p + 2:]
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
    return seen


def test_canonical_form_is_least_of_commutation_class():
    def key(arrows):
        return [(min(a.tail, a.head), max(a.tail, a.head), int(a.kind), a.tail)
                for a in arrows]

    rng = random.Random(47)
    for _ in range(300):
        g = random_gauss(rng, rng.choice((3, 4)), 6)
        c, trace = canonical_form_trace(g)
        assert c.arrows == min(_commutation_class(g.arrows), key=key)
        assert replay_omega_trace(g, trace) == c
        assert all(step.label == "swap" for step in trace)


def _full_scan_canonical_form(g):
    """The greedy selection of ``canonical_form_trace`` scanning every later
    arrow, with no stop once at most one strand is uncrossed."""
    arrows, trace = list(g.arrows), []
    for q in range(len(arrows)):
        best_j, best = q, gauss._arrow_key(arrows[q])
        blocked = {arrows[q].tail, arrows[q].head}
        for j in range(q + 1, len(arrows)):
            a = arrows[j]
            if a.tail not in blocked and a.head not in blocked and gauss._arrow_key(a) < best:
                best, best_j = gauss._arrow_key(a), j
            blocked.update((a.tail, a.head))
        for j in range(best_j, q, -1):
            a, b = arrows[j - 1], arrows[j]
            trace.append(TraceStep("swap", j - 1, (a, b), (b, a)))
            arrows[j - 1], arrows[j] = b, a
    return GaussWord(g.n, tuple(arrows), g.perm), tuple(trace)


def test_canonical_form_scan_stops_without_changing_the_result():
    rng = random.Random(26)
    for _ in range(500):
        n = rng.randint(2, 6)
        g = random_gauss(rng, n, 14) if rng.random() < 0.5 else \
            gauss_of_braid(random_word(rng, n, 20))
        assert canonical_form_trace(g) == _full_scan_canonical_form(g)


def test_canonical_form_keeps_linked_order():
    g = gauss_of_braid(parse_word("s2 s1", 3))
    assert canonical_form(g).arrows == g.arrows


def test_omega_neighbors_are_reversible():
    rng = random.Random(41)
    strands = range(1, 4)
    for _ in range(40):
        g = random_gauss(rng, 3, 4)
        for *move, child in gauss._omega_moves(g.arrows, strands, len(g) + 2):
            step, h = TraceStep(*move), GaussWord(3, child, g.perm)
            assert replay_omega_trace(g, (step,)) == h
            assert any(replay_omega_trace(h, (TraceStep(*back),)) == g
                       for *back, _ in gauss._omega_moves(child, strands, len(h) + 2)), step.label


def test_omega_insertions_cover_the_given_strands():
    # a diagram on strands 1-2 still gets insertions on every ordered pair
    # of the strands it is given, in their order
    pos, neg = ArrowKind.POS, ArrowKind.NEG
    arrows = (Arrow(1, 2, pos), Arrow(2, 1, pos), Arrow(1, 2, neg))
    inserted = {}
    for label, _, before, after, _ in gauss._omega_moves(arrows, range(1, 4), len(arrows) + 2):
        if not before:
            inserted.setdefault((after[0].tail, after[0].head), label)
    assert list(inserted) == list(permutations(range(1, 4), 2))
    assert set(inserted.values()) == {"O2"}


def test_omega_equivalent_on_relation_diagrams():
    for n in (2, 3):
        for inst in relation_catalog(n):
            gl, gr = gauss_of_braid(inst.lhs), gauss_of_braid(inst.rhs)
            v = omega_equivalent(gl, gr)
            assert isinstance(v, Equivalent), inst.family
            assert len(v.trace) <= 6, inst.family
            assert replay_omega_trace(gl, v.trace) == gr


def test_omega_equivalent_distinct_cases():
    g = gauss_of_braid(parse_word("r1", 2))
    h = gauss_of_braid(parse_word("e", 2))
    v = omega_equivalent(g, h)
    assert v == Distinct("theta", g.perm, h.perm)
    # the sections are screened in words.screen's order
    g = gauss_of_braid(parse_word("s1", 2))
    h = gauss_of_braid(parse_word("s1'", 2))
    v = omega_equivalent(g, h)
    assert isinstance(v, Distinct) and v.invariant == "degree"
    g = gauss_of_braid(parse_word("s1", 3))
    h = gauss_of_braid(parse_word("s1' s2 s2", 3))
    v = omega_equivalent(g, h)
    assert isinstance(v, Distinct) and v.invariant == "pair_invariants"


def test_omega_equivalent_separates_by_burau():
    # one mixed-sign triangle slide: same pair invariants, different matrices
    g = GaussWord(3, (Arrow(1, 2, ArrowKind.POS), Arrow(1, 3, ArrowKind.NEG),
                      Arrow(2, 3, ArrowKind.POS)))
    h = GaussWord(3, tuple(reversed(g.arrows)))
    v = omega_equivalent(g, h)
    assert isinstance(v, Distinct) and v.invariant == "burau"
    (r, c, a), (r2, c2, b) = v.left, v.right
    assert (r, c) == (r2, c2) and a != b


def test_omega_equivalent_screens_the_sections():
    # a pair of diagrams is told apart exactly as the pair of their sections
    rng = random.Random(13)
    separated = 0
    for _ in range(300):
        g, h = random_gauss(rng, 3, 4), random_gauss(rng, 3, 4)
        distinct = screen(braid_of_gauss(g), braid_of_gauss(h), g, h)
        if distinct is None or canonical_form(g) == canonical_form(h):
            continue
        assert omega_equivalent(g, h) == distinct, (g, h)
        separated += 1
    assert separated > 250


def test_omega_cancels_opposite_pair():
    g = gauss_of_braid(parse_word("s1 s1'", 2))
    v = omega_equivalent(g, GaussWord(2))
    assert isinstance(v, Equivalent)
    assert len(v.trace) == 1


def test_omega_equivalent_at_many_strands(monkeypatch):
    # moves are generated lazily: the cancellation meets the goal before
    # any of the 300*299*6 insertions is placed
    def no_placements(*args):
        raise AssertionError("insertions were placed")
    monkeypatch.setattr(gauss, "placements", no_placements)
    g = GaussWord(300, (Arrow(1, 300, ArrowKind.POS), Arrow(1, 300, ArrowKind.NEG)))
    v = omega_equivalent(g, GaussWord(300))
    assert isinstance(v, Equivalent)
    assert replay_omega_trace(g, v.trace) == GaussWord(300)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_omega_insertions_stay_on_the_touched_strands(n):
    # insertions go on the strands the two diagrams touch plus one, so the
    # search does not grow with n
    g, h = (gauss_of_braid(parse_word(text, n)) for text in ("s1 s2 s1'", "s2' s1 s2"))
    v = omega_equivalent(g, h)
    assert isinstance(v, Equivalent) and len(v.trace) == 3, v
    assert replay_omega_trace(g, v.trace) == h


def test_omega_swaps_disjoint_arrows():
    # disjoint arrows need four strands: the middle arrow swaps out of the way
    pos, neg = ArrowKind.POS, ArrowKind.NEG
    g = GaussWord(4, (Arrow(1, 2, pos), Arrow(3, 4, pos), Arrow(1, 2, neg)))
    h = GaussWord(4, (Arrow(3, 4, pos),))
    v = omega_equivalent(g, h)
    assert isinstance(v, Equivalent)
    assert [s.label for s in v.trace] == ["swap", "O2"]
    assert replay_omega_trace(g, v.trace).arrows == h.arrows


def test_every_omega_certificate_is_replayed_once(monkeypatch):
    calls = []
    replay = gauss.replay_omega_trace

    def recording(g, trace):
        calls.append(g)
        return replay(g, trace)

    monkeypatch.setattr(gauss, "replay_omega_trace", recording)
    for n, left, right in ((4, "s1 s3", "s3 s1"),   # commutation-canonical form
                           (3, "t1 s1", "s1 t1")):  # search
        g, h = (gauss_of_braid(parse_word(text, n)) for text in (left, right))
        calls.clear()
        verdict = omega_equivalent(g, h)
        assert isinstance(verdict, Equivalent)
        assert calls == [g]


def test_omega_equivalent_unknown_at_its_node_limit(monkeypatch):
    # the D4 pair passes every screen but needs the second S4 orientation,
    # which the catalog lacks; it becomes provable once that row is added
    monkeypatch.setattr(Budget, "nodes", 300)
    assert Budget().nodes == 200_000
    g, h = (gauss_of_braid(parse_word(text, 3)) for text in ("s2 s1 t2", "t1 s2 s1"))
    assert omega_equivalent(g, h) == Unknown(301, 1, 1)
