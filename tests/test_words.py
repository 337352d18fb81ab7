import random

import pytest

from svbraid import (
    BraidWord, Budget, Distinct, Equivalent, Generator, IndexRangeError, Kind,
    ParseError, TraceStep, Unknown, compose_perms, concat, degree, equivalent,
    free_reduce, free_reduce_trace, identity_perm, inverse_word, invert_perm,
    invert_step, mirror, parse_word, print_word, relation_catalog,
    replay_trace, rho, sigma, singularity_count, tau, theta, virtual_word_of_perm,
)
from svbraid import gauss, rep, search, words
from svbraid.gauss import braid_of_gauss, gauss_of_braid
from svbraid.suites import random_gauss, random_word


def assert_catalog_steps(n, trace):
    """Every step rewrites one side of a catalog instance of its own
    family into the other side."""
    sides = {(inst.family, inst.lhs.letters, inst.rhs.letters)
             for inst in relation_catalog(n)}
    sides |= {(family, rhs, lhs) for family, lhs, rhs in sides}
    for step in trace:
        assert (step.label, step.before, step.after) in sides, step


def test_parse_print_roundtrip():
    for text in ("e", "s1", "s1'", "r2", "t1", "r1 s2' t1 r2 s2 t2"):
        w = parse_word(text, 3)
        assert print_word(w) == text
        assert parse_word(print_word(w), 3) == w


def test_parse_empty_spellings():
    assert parse_word("e", 2) == BraidWord(2)
    assert print_word(BraidWord(3)) == "e"
    with pytest.raises(ParseError):
        parse_word("", 2)
    with pytest.raises(ParseError):
        parse_word("e e", 2)


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_word("s1 x3", 4)
    assert exc.value.position == 4  # column of the bad token
    with pytest.raises(IndexRangeError):
        parse_word("s5", 2)
    with pytest.raises(IndexRangeError):
        parse_word("r0", 3)
    with pytest.raises(ValueError):
        parse_word("e", 1)
    with pytest.raises(ParseError):
        parse_word("t1'", 3)


def test_parse_splits_on_any_whitespace():
    assert parse_word("s1\ts2", 3) == parse_word("s1 s2", 3)
    assert parse_word("\nr1 \n t2\t\n", 3) == parse_word("r1 t2", 3)
    with pytest.raises(ParseError) as exc:
        parse_word("s1\tx3", 4)
    assert exc.value.position == 4


def test_word_container_basics():
    w = parse_word("s1 t2", 3)
    assert len(w) == 2
    assert w.letters == (sigma(1), tau(2))
    assert BraidWord(1) == BraidWord(1, ())
    letters = (sigma(1), rho(2))
    assert BraidWord(3, letters).letters is letters
    with pytest.raises(ValueError):
        BraidWord(0)
    # the strand count is an int: a float or a bool is rejected
    for n in (2.0, True):
        with pytest.raises(ValueError):
            BraidWord(n, (sigma(1),))
    with pytest.raises(IndexRangeError):
        BraidWord(2, (sigma(5),))
    # one input format: a tuple of Generators of a Kind and an int index (at
    # n=3, where the indices 1.5 and True pass the range check)
    for bad in (((0, 1),), [sigma(1)], (Generator(7, 1),),
                (Generator(Kind.POS, 1.5),), (Generator(Kind.POS, True),)):
        with pytest.raises(ValueError):
            BraidWord(3, bad)


def test_concat_and_inverse():
    u = parse_word("s1 r2", 3)
    v = parse_word("s2'", 3)
    assert print_word(concat(u, v)) == "s1 r2 s2'"
    assert print_word(inverse_word(u)) == "r2 s1'"
    assert free_reduce(concat(u, inverse_word(u))) == BraidWord(3)
    with pytest.raises(ValueError):
        inverse_word(parse_word("t1", 2))
    with pytest.raises(ValueError):
        concat(parse_word("s1", 2), parse_word("s1", 3))


def test_mirror_reverses_and_swaps_signs():
    w = parse_word("s1 r2 t1 s2'", 3)
    assert print_word(mirror(w)) == "s2 t1 r2 s1'"
    assert mirror(mirror(w)) == w


def test_mirrored_relations_follow_from_the_catalog():
    # mirror is an anti-automorphism, so the mirror of each relation that
    # the diagram moves are read from is proved from the catalog itself,
    # at the default budget: the word search widens its own length cap
    for n in (3, 4):
        for inst in relation_catalog(n):
            if inst.family not in ("R2", "R3", "S3", "S4"):
                continue
            u, v = mirror(inst.lhs), mirror(inst.rhs)
            verdict = equivalent(u, v)
            assert isinstance(verdict, Equivalent), (inst, verdict)
            assert replay_trace(u, verdict.trace) == v


def test_perm_helpers():
    p = (3, 1, 2)
    assert compose_perms(p, invert_perm(p)) == identity_perm(3)
    assert invert_perm(p) == (2, 3, 1)
    q = (2, 1, 3)
    # left to right: apply q after p
    assert compose_perms(p, q) == (3, 2, 1)


def test_theta_examples():
    assert theta(parse_word("s1 t2", 3)) == (3, 1, 2)
    assert theta(parse_word("t1 t2", 3)) == (3, 1, 2)
    assert theta(parse_word("r1 t2 r1", 3)) == (3, 2, 1)
    assert theta(BraidWord(4)) == (1, 2, 3, 4)


def test_theta_is_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        u = random_word(rng, n, 8)
        v = random_word(rng, n, 8)
        assert theta(concat(u, v)) == compose_perms(theta(u), theta(v))


def test_virtual_word_of_perm_exhaustive_s4():
    import itertools
    for p in itertools.permutations(range(1, 5)):
        w = virtual_word_of_perm(p)
        assert theta(w) == p
        assert all(g.kind == Kind.VIRT for g in w.letters)


def test_degree_and_singularity_count():
    w = parse_word("s1 s2' t1 r2 t2", 3)
    assert degree(w) == 0
    assert singularity_count(w) == 2
    assert degree(parse_word("s1 s1", 2)) == 2
    assert degree(parse_word("s1'", 2)) == -1
    rng = random.Random(19)
    for w in [BraidWord(2), BraidWord(5)] + [random_word(rng, rng.randint(2, 6), 30)
                                             for _ in range(200)]:
        kinds = [g.kind for g in w.letters]
        assert degree(w) == kinds.count(Kind.POS) - kinds.count(Kind.NEG)
        assert singularity_count(w) == kinds.count(Kind.SING)
    assert (degree(BraidWord(2)), singularity_count(BraidWord(2))) == (0, 0)


def test_free_reduce():
    assert free_reduce(parse_word("s1 s1'", 2)) == BraidWord(2)
    assert free_reduce(parse_word("r1 r1", 2)) == BraidWord(2)
    assert print_word(free_reduce(parse_word("t1 t1", 2))) == "t1 t1"
    assert print_word(free_reduce(parse_word("s1 r1 r1 s1' t1", 2))) == "t1"


def test_free_reduce_trace_replays():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 4), 10)
        reduced, trace = free_reduce_trace(w)
        assert replay_trace(w, trace) == reduced
        assert all(step.label in ("R2", "V3") for step in trace)


def test_trace_step_inversion():
    w = parse_word("t1 s1", 2)
    verdict = equivalent(w, parse_word("s1 t1", 2))
    assert isinstance(verdict, Equivalent)
    step = verdict.trace[0]
    assert replay_trace(replay_trace(w, [step]), [invert_step(step)]) == w


def test_replay_rejects_stale_trace():
    w = parse_word("t1 s1", 2)
    bad = TraceStep("S3", 0, (sigma(1), tau(1)), (tau(1), sigma(1)))
    with pytest.raises(ValueError):
        replay_trace(w, [bad])


def test_relation_catalog_counts():
    assert len(relation_catalog(2)) == 4
    assert len(relation_catalog(3)) == 13
    assert len(relation_catalog(4)) == 31


def test_relation_catalog_families_at_n4():
    from collections import Counter
    got = Counter(inst.family for inst in relation_catalog(4))
    assert got == {"R0": 1, "R2": 6, "R3": 2, "V1": 1, "V2": 2, "V3": 3,
                   "V4": 2, "V5": 2, "S1": 1, "S2": 2, "S3": 3, "S4": 2,
                   "SV1": 2, "SV2": 2}


def test_relation_catalog_order_at_n4():
    # the order `svb relations` and `svb verify relations` print
    listing = [(inst.family, print_word(inst.lhs), print_word(inst.rhs))
               for inst in relation_catalog(4)]
    assert listing == [
        ("R0", "s1 s3", "s3 s1"),
        ("R2", "s1 s1'", "e"),
        ("R2", "s1' s1", "e"),
        ("R2", "s2 s2'", "e"),
        ("R2", "s2' s2", "e"),
        ("R2", "s3 s3'", "e"),
        ("R2", "s3' s3", "e"),
        ("R3", "s1 s2 s1", "s2 s1 s2"),
        ("R3", "s2 s3 s2", "s3 s2 s3"),
        ("V1", "r1 r3", "r3 r1"),
        ("V2", "s1 r3", "r3 s1"),
        ("V2", "s3 r1", "r1 s3"),
        ("V3", "r1 r1", "e"),
        ("V3", "r2 r2", "e"),
        ("V3", "r3 r3", "e"),
        ("V4", "r1 r2 r1", "r2 r1 r2"),
        ("V4", "r2 r3 r2", "r3 r2 r3"),
        ("V5", "r1 s2 r1", "r2 s1 r2"),
        ("V5", "r2 s3 r2", "r3 s2 r3"),
        ("S1", "t1 t3", "t3 t1"),
        ("S2", "t1 s3", "s3 t1"),
        ("S2", "t3 s1", "s1 t3"),
        ("S3", "t1 s1", "s1 t1"),
        ("S3", "t2 s2", "s2 t2"),
        ("S3", "t3 s3", "s3 t3"),
        ("S4", "s1 s2 t1", "t2 s1 s2"),
        ("S4", "s2 s3 t2", "t3 s2 s3"),
        ("SV1", "r1 t3", "t3 r1"),
        ("SV1", "r3 t1", "t1 r3"),
        ("SV2", "r1 t2 r1", "r2 t1 r2"),
        ("SV2", "r2 t3 r2", "r3 t2 r3"),
    ]


def test_relation_sides_share_invariants():
    for n in (2, 3, 4):
        for inst in relation_catalog(n):
            assert theta(inst.lhs) == theta(inst.rhs), inst.family
            assert degree(inst.lhs) == degree(inst.rhs), inst.family
            assert singularity_count(inst.lhs) == singularity_count(inst.rhs)


def test_rewrite_neighbors_contains_relation_rewrites():
    w = parse_word("t1 s1", 2)
    moves = words._byte_neighbors(words.encode_letters(w.letters), words._rewrite_rules(2), 4)
    results = {(label, print_word(BraidWord(2, words.decode_letters(out))))
               for label, _, _, _, out in moves}
    assert ("S3", "s1 t1") in results
    for label, p, before, after, out in moves:
        step = TraceStep(label, p, words.decode_letters(before), words.decode_letters(after))
        assert replay_trace(w, [step]) == BraidWord(2, words.decode_letters(out))


def test_equivalent_trivial_and_one_move():
    assert isinstance(equivalent(parse_word("s1 s1'", 2), BraidWord(2)), Equivalent)
    v = equivalent(parse_word("t1 s1", 2), parse_word("s1 t1", 2))
    assert isinstance(v, Equivalent) and len(v.trace) == 1
    v = equivalent(parse_word("s1", 2), parse_word("s1", 2))
    assert isinstance(v, Equivalent) and v.trace == ()


def test_equivalent_distinct_by_invariants():
    v = equivalent(parse_word("s1", 2), parse_word("s1'", 2))
    assert isinstance(v, Distinct) and v.invariant == "degree"
    u, w = parse_word("r1", 3), parse_word("r2", 3)
    v = equivalent(u, w)
    assert isinstance(v, Distinct) and v.invariant == "theta"
    assert (v.left, v.right) == (theta(u), theta(w))
    v = equivalent(parse_word("t1 t1", 2), parse_word("t1", 2))
    assert isinstance(v, Distinct)


def test_equivalent_beyond_one_byte_letters():
    # letters r68 and t69 pack to code points above 255
    u, v = parse_word("r68 t69 r68", 70), parse_word("r69 t68 r69", 70)
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent)
    assert replay_trace(u, verdict.trace) == v
    u, v = parse_word("t69 s69", 70), parse_word("s69 t69", 70)
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent)
    assert [s.label for s in verdict.trace] == ["S3"]


def test_equivalent_rejects_mixed_strand_counts():
    with pytest.raises(ValueError):
        equivalent(parse_word("s1", 2), parse_word("s1", 3))


def test_equivalent_traces_replay():
    rng = random.Random(3)
    for n in (2, 3):
        for inst in relation_catalog(n):
            v = equivalent(inst.lhs, inst.rhs)
            assert isinstance(v, Equivalent)
            assert replay_trace(inst.lhs, v.trace) == inst.rhs
            assert_catalog_steps(n, v.trace)
    for _ in range(30):
        w = random_word(rng, 3, 6)
        spot = rng.randint(0, len(w)) if len(w) else 0
        padded = BraidWord(3, w.letters[:spot] + (sigma(1), sigma(1, -1)) + w.letters[spot:])
        v = equivalent(w, padded)
        assert isinstance(v, Equivalent)
        assert replay_trace(w, v.trace) == padded
        assert_catalog_steps(3, v.trace)


@pytest.mark.parametrize("n, text", [
    (3, "r2 r1 s2 r1 r2 r1"),
    (3, "r2 r1 s2' r1 r2 r1"),
    (3, "r2 r1 t2 r1 r2 r1"),
    (5, "s1' s3' s3' r1 r2 s2'"),
    (5, "s2' t3 t3 s4 s4 r1 t2 s3' t3 t4"),
    (5, "r1 r4 s2 s2' s3 s1"),
])
def test_equal_diagrams_are_equivalent(n, text):
    # each crossing slides through the straightened virtual letters before it
    u = parse_word(text, n)
    v = braid_of_gauss(gauss_of_braid(u))
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent), verdict
    assert replay_trace(u, verdict.trace) == v
    assert_catalog_steps(n, verdict.trace)


def test_sections_normalise_without_search(monkeypatch):
    seen = []
    monkeypatch.setattr(words, "_word_search", lambda *args, **kwargs: seen.append(args))
    rng = random.Random(0)
    for k in range(2000):
        s = braid_of_gauss(random_gauss(rng, 2 + k % 6, 8))
        assert words._diagram_normal_trace(s, s.letters, Budget()) == ()
    assert seen == []


def test_straighten_reaches_the_run_normal_form():
    rng = random.Random(11)
    for n in range(2, 9):
        for length in range(31):
            letters = tuple(rho(rng.randint(1, n - 1)) for _ in range(length))
            prefix = tuple(rho(rng.randint(1, n - 1)) for _ in range(rng.randint(0, 3)))
            word, steps = words._straighten(letters, offset=len(prefix))
            assert word == virtual_word_of_perm(theta(BraidWord(n, letters))).letters
            assert replay_trace(BraidWord(n, prefix + letters), steps) == \
                BraidWord(n, prefix + word)
            assert_catalog_steps(n, steps)
            assert words._straighten(word, offset=len(prefix)) == (word, ())


def test_virtual_pairs_need_no_search(monkeypatch):
    # a virtual-only pair has equal diagrams without crossings, so its two
    # straightenings are the whole certificate
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(words, "_word_search", no_search)
    u = parse_word("r1 r2 r1 r3 r5 r2 r1 r3 r4", 6)
    v = parse_word("r3 r2 r1 r3 r2 r5 r4", 6)
    verdict = equivalent(u, v, Budget(nodes=1))
    assert isinstance(verdict, Equivalent)
    assert replay_trace(u, verdict.trace) == v
    assert_catalog_steps(6, verdict.trace)


@pytest.mark.parametrize("n, left, right", [
    (3, "s1 s1'", "s1 r1 r2 r1 r2 r1 r2 s1'"),
    (4, "s2 s2' t1 s3", "s2 r2 r3 r2 r3 r2 r3 s2' t1 s3"),
    (3, "s1' s1 r2", "s1' r2 r1 r2 r1 r2 r1 s1 r2"),
])
def test_cancelling_pair_around_a_trivial_virtual_word(n, left, right):
    # the reduced words have different diagrams, so the global search
    # settles the pair
    u, v = parse_word(left, n), parse_word(right, n)
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent), verdict
    assert replay_trace(u, verdict.trace) == v
    assert_catalog_steps(n, verdict.trace)


def test_every_certificate_is_replayed_once(monkeypatch):
    calls = []
    replay = words.replay_trace

    def recording(w, trace):
        calls.append(print_word(w))
        return replay(w, trace)

    monkeypatch.setattr(words, "replay_trace", recording)
    for n, left, right in ((2, "s1 s1' t1", "t1"),              # free reduction only
                           (3, "r2 r1 s2 r1 r2 r1", "s1 r1"),   # diagram normalisation
                           (3, "t1 s1", "s1 t1")):              # global search
        u = parse_word(left, n)
        calls.clear()
        assert isinstance(equivalent(u, parse_word(right, n)), Equivalent)
        assert calls == [left]


def test_burau_screen_covers_the_touched_strands_only(monkeypatch):
    counts = []
    burau = rep.burau

    def recording(w):
        counts.append(w.n)
        return burau(w)

    monkeypatch.setattr(rep, "burau", recording)

    def screened(n):
        u, v = parse_word("s1 t2", n), parse_word("r1 s1 r1 t2", n)
        return words.screen(u, v, gauss_of_braid(u), gauss_of_braid(v))

    distinct = screened(50)
    assert distinct is not None and distinct.invariant == "burau"
    assert counts == [3, 3]
    assert distinct == screened(3)


def test_equivalent_builds_each_diagram_once(monkeypatch):
    # the reduced words' diagrams serve both the screen and the equal-diagram test
    calls = []
    build = gauss.gauss_of_braid

    def counting(w):
        calls.append(print_word(w))
        return build(w)

    monkeypatch.setattr(gauss, "gauss_of_braid", counting)
    assert isinstance(equivalent(parse_word("t1 s1", 2), parse_word("s1 t1", 2)), Equivalent)
    assert calls == ["t1 s1", "s1 t1"]


def test_search_rules_cover_the_touched_strands(monkeypatch):
    # rules on the strands the words touch plus one, not on all 100
    seen = []
    rules = words._rewrite_rules

    def recording(n):
        seen.append(n)
        return rules(n)

    monkeypatch.setattr(words, "_rewrite_rules", recording)
    u, v = parse_word("t1 s1", 100), parse_word("s1 t1", 100)
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent) and len(verdict.trace) == 1
    assert seen == [3]
    seen.clear()
    # normalised to its section s1 r1: each slide search's rules reach one
    # strand past what its own two ends touch, and the section needs none
    u = parse_word("r2 r1 s2 r1 r2 r1", 100)
    verdict = equivalent(u, braid_of_gauss(gauss_of_braid(u)))
    assert isinstance(verdict, Equivalent) and set(seen) == {4}
    assert_catalog_steps(4, verdict.trace)


def test_budget_binds_every_search(monkeypatch):
    seen = []
    search = words._word_search

    def recording(start, goal, n, max_nodes, *args, **kwargs):
        seen.append(max_nodes)
        return search(start, goal, n, max_nodes, *args, **kwargs)

    monkeypatch.setattr(words, "_word_search", recording)
    # two crossings, so two slide searches; its section needs none
    u, v = parse_word("r1 t2 t1 r1", 3), parse_word("r2 t1 r1 r2 t2 r2 r1 r2", 3)
    assert braid_of_gauss(gauss_of_braid(u)) == v
    budget = Budget()
    assert isinstance(equivalent(u, v, budget), Equivalent)
    assert len(seen) >= 2
    assert all(max_nodes == budget.nodes for max_nodes in seen)
    # the normalisation slide searches stop at the caller's node budget too
    u, v = parse_word("r4 t1 s3 t3 t2 r1 r2", 5), parse_word("t1 r4 s3 t3 t2 r1 r2", 5)
    verdict = equivalent(u, v, Budget(nodes=10))
    assert isinstance(verdict, Unknown) and verdict.nodes_explored <= 11


def test_failed_normalisation_skips_the_second_word(monkeypatch):
    # and the search between the two whole words: the failed slide search is
    # the verdict, and Unknown reports its effort
    calls, searches = [], []
    normal, search = words._diagram_normal_trace, words._word_search

    def recording(w, section, budget):
        calls.append(print_word(w))
        return normal(w, section, budget)

    def recording_search(start, goal, *args, **kwargs):
        searches.append((start, goal, search(start, goal, *args, **kwargs)))
        return searches[-1][2]

    monkeypatch.setattr(words, "_diagram_normal_trace", recording)
    monkeypatch.setattr(words, "_word_search", recording_search)
    u, v = parse_word("r4 t1 s3 t3 t2 r1 r2", 5), parse_word("t1 r4 s3 t3 t2 r1 r2", 5)
    verdict = equivalent(u, v, Budget(nodes=10))
    assert calls == ["r4 t1 s3 t3 t2 r1 r2"]
    assert searches and all({start, goal} != {u.letters, v.letters}
                            for start, goal, _ in searches)
    assert isinstance(verdict, Unknown) and verdict.nodes_explored <= 11
    assert verdict == Unknown(*searches[-1][2])
    # the failed search's own record is the verdict
    assert verdict is searches[-1][2]


def test_equivalent_unknown_reports_effort():
    # equivalent by construction, but beyond a 2000-node search
    u = parse_word("t1 s1 s1 s3 s1 t3", 4)
    v = parse_word("s1 s1 t1 t3 s1 s3", 4)
    verdict = equivalent(u, v, Budget(nodes=2000))
    assert isinstance(verdict, Unknown)
    assert verdict.nodes_explored > 0
    verdict = equivalent(u, v)
    assert isinstance(verdict, Equivalent) and len(verdict.trace) == 5
    # same cheap invariants, different diagrams: the burau screen separates them
    verdict = equivalent(parse_word("s1 t2", 3), parse_word("r1 s1 r1 t2", 3),
                         Budget(nodes=2000))
    assert isinstance(verdict, Distinct) and verdict.invariant == "burau"


def test_one_failure_record():
    # the search's record is the verdict, under one name, and stays indexable
    assert Unknown is words.Unknown is search.Unknown
    verdict = equivalent(parse_word("s1' s2' s1'", 3), parse_word("s2' s1' s2'", 3),
                         Budget(nodes=900))
    assert repr(verdict) == "Unknown(nodes_explored=901, depth_forward=1, depth_backward=1)"
    assert verdict[0] == verdict.nodes_explored == 901


def test_every_deepening_round_counts_against_the_budget():
    # both pairs exhaust their first length cap with nodes to spare, so the
    # search widens the cap and spends the whole budget before Unknown
    for left, right, nodes in (("s1' s2' s1'", "s2' s1' s2'", 900),
                               ("s2 s1 t2", "t1 s2 s1", 3000)):
        verdict = equivalent(parse_word(left, 3), parse_word(right, 3), Budget(nodes=nodes))
        assert isinstance(verdict, Unknown), verdict
        assert verdict.nodes_explored == nodes + 1


def test_budget_binds_to_one_node_over():
    # a search left fewer than 2 nodes stores neither end: at 1 node, and at
    # a deepening round left with 1 node, the verdict overshoots by 1 only
    for left, right, nodes in (("s1 s2 s1", "s2 s1 s2", 1),
                               ("s1' s2' s1'", "s2' s1' s2'", 1),
                               ("s2 s1 t2", "t1 s2 s1", 1),
                               ("s1' s2' s1'", "s2' s1' s2'", 807),
                               ("s2 s1 t2", "t1 s2 s1", 1097)):
        verdict = equivalent(parse_word(left, 3), parse_word(right, 3), Budget(nodes=nodes))
        assert isinstance(verdict, Unknown), verdict
        assert verdict.nodes_explored == nodes + 1, (left, nodes)


def test_budget_validation():
    # a positive int only: a bool, a float or a string is rejected
    for nodes in (0, -1, True, 2.5, "5"):
        with pytest.raises(ValueError):
            Budget(nodes=nodes)
