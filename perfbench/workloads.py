"""The benchmark's workloads: seeded inputs, the timed call, the output check.

Inputs are built from the seed with the reference code in ``ref`` and
handed to the library as parsed words, so a change to the library cannot
change what is measured.  Each workload fixes how many items of each
stratum a pass holds; the seed picks the letters inside each stratum.
That keeps a pass's cost about the same from seed to seed, which a
heavy-tailed workload drawn freely would not.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import ref
from ref import NEG, POS, SING, VIRT

import svbraid as sv

# Node budget of equiv-search, the value a user passes as ``svb equiv --budget``.
SEARCH_NODES = 5_000


class CheckFailed(Exception):
    """The library returned a wrong result for an item."""


@dataclass
class Outcome:
    settled: bool          # a decided verdict or a computed result
    moves: int | None = None  # trace length of an Equivalent verdict


@dataclass
class Workload:
    name: str
    items: list
    run: object             # item -> result; the timed call
    check: object           # (item, result) -> Outcome; raises CheckFailed
    strands: tuple
    per_pass: object = None  # () -> list[int]; extra timed work once per pass
    notes: dict = field(default_factory=dict)


def _plain(letters) -> tuple:
    """Library letters as reference letters."""
    return tuple((int(g.kind), g.index) for g in letters)


def _letters(word) -> tuple:
    return _plain(word.letters)


def _arrows(g) -> tuple:
    return tuple((a.tail, a.head, int(a.kind)) for a in g.arrows)


def _random_letters(rng, n, length, kinds):
    return tuple((rng.choice(kinds), rng.randint(1, n - 1)) for _ in range(length))


def _random_reduced(rng, n, length, kinds):
    """A random word with no adjacent cancelling pair."""
    while True:
        w = _random_letters(rng, n, length, kinds)
        if ref.free_reduce(w) == w:
            return w


def _random_moves(rng, n, word, count, families, max_len):
    """Apply ``count`` random instances of the given relation families."""
    rules = sorted((b, a) for (b, a), f in ref.catalog(n).items() if f in families)
    for _ in range(count):
        options = []
        for before, after in rules:
            if len(word) - len(before) + len(after) > max_len:
                continue
            for p in range(len(word) - len(before) + 1):
                if word[p:p + len(before)] == before:
                    options.append((p, before, after))
        if not options:
            break
        p, before, after = rng.choice(options)
        word = ref.apply_step(word, p, before, after)
    return word


# --- word-level checks ----------------------------------------------------

def check_trace(n: int, u, v, trace) -> int:
    """Replay an Equivalent certificate with the reference step applier;
    every step must be a catalog relation under its own family name."""
    catalog = ref.catalog(n)
    word = u
    for step in trace:
        before, after = _plain(step.before), _plain(step.after)
        family = catalog.get((before, after))
        if family is None or family != step.label:
            raise CheckFailed(f"step {step.label} {ref.text(before)} -> "
                              f"{ref.text(after)} is not a relation instance")
        word = ref.apply_step(word, step.position, before, after)
        if word is None:
            raise CheckFailed(f"step {step.label} does not match at {step.position}")
    if word != v:
        raise CheckFailed("certificate does not end at the second word")
    return len(trace)


_SCREENS = {
    "theta": lambda n, w: ref.theta(n, w),
    "degree": lambda n, w: ref.degree(w),
    "singularity_count": lambda n, w: ref.singularities(w),
    "pair_invariants": lambda n, w: ref.pair_invariants(ref.gauss(n, w)[0]),
}


def check_verdict(n: int, u, v, equivalent_by_construction: bool, verdict) -> Outcome:
    kind = type(verdict).__name__
    if kind == "Equivalent":
        return Outcome(True, check_trace(n, u, v, verdict.trace))
    if kind == "Distinct":
        if equivalent_by_construction:
            raise CheckFailed(f"Distinct ({verdict.invariant}) on an equivalent pair")
        screen = _SCREENS.get(verdict.invariant)
        if screen is not None and screen(n, u) == screen(n, v):
            raise CheckFailed(f"{verdict.invariant} does not separate the pair")
        return Outcome(True)
    if kind == "Unknown":
        return Outcome(False)
    raise CheckFailed(f"unexpected verdict {verdict!r}")


def _equiv_workload(name, pairs, budget, strands, notes):
    items = [(n, u, v, built, sv.parse_word(ref.text(u), n),
              sv.parse_word(ref.text(v), n)) for n, u, v, built in pairs]

    def run(item):
        return sv.equivalent(item[4], item[5], budget)

    def check(item, verdict):
        n, u, v, built = item[:4]
        return check_verdict(n, u, v, built, verdict)

    return Workload(name, items, run, check, strands, notes=notes)


# --- equiv-normalise ------------------------------------------------------

# Rounds of each crossing kind's strata in a pass.  A negative crossing
# costs up to a thousand times more to normalise than a positive or
# singular one, so it has fewer rounds; that keeps a pass within the run
# time and still gives enough pairs for a steady median.
NORMALISE_ROUNDS = {NEG: 1, POS: 6, SING: 6}
_PRESERVING = ("V1", "V2", "V3", "V4", "V5", "SV1", "SV2")


def normalise_pairs(seed: int) -> list:
    """Pairs with equal Gauss diagrams and different free reductions, n=3.

    Each word is one crossing among five virtual letters, with no adjacent
    cancelling pair.  A stratum fixes the crossing (negative, positive or
    singular), the strand permutation of the virtual letters before it,
    its slot index, and how the second word is made: the section of the
    word's Gauss diagram, or three random diagram-preserving moves.  A
    stratum appears ``NORMALISE_ROUNDS[kind]`` times.  Words with more than
    one crossing are left out: sliding several crossings through the same
    virtual letters made a pair's cost range from 1 ms to 4 s at random,
    so the figures moved with the seed more than with the code.
    """
    rng = random.Random(f"equiv-normalise/{seed}")
    n = 3
    strata = [(kind, perm, i, how) for kind, rounds in NORMALISE_ROUNDS.items()
              for _ in range(rounds)
              for perm in itertools.permutations(range(1, n + 1))
              for i in range(1, n) for how in ("gauss", "moves")]
    pairs = []
    for kind, perm, i, how in strata:
        while True:
            cut = rng.randint(0, 5)
            before = _random_letters(rng, n, cut, (VIRT,))
            if ref.theta(n, before) != perm:
                continue
            w = before + ((kind, i),) + _random_letters(rng, n, 5 - cut, (VIRT,))
            if ref.free_reduce(w) != w:
                continue
            if how == "gauss":
                w2 = ref.word_of_gauss(n, *ref.gauss(n, w))
            else:
                w2 = _random_moves(rng, n, w, 3, _PRESERVING, 12)
            if ref.free_reduce(w) != ref.free_reduce(w2):
                pairs.append((n, w, w2, True))
                break
    rng.shuffle(pairs)
    return pairs


def equiv_normalise(seed: int) -> Workload:
    pairs = normalise_pairs(seed)
    return _equiv_workload("equiv-normalise", pairs, sv.Budget(), (3,),
                           {"items": len(pairs), "n": [3], "budget": "Budget()"})


# --- equiv-search ---------------------------------------------------------

SEARCH_ROUNDS = 65
_LENGTH_PRESERVING = ("R0", "R3", "V1", "V2", "V4", "V5", "S1", "S2", "S3",
                      "S4", "SV1", "SV2")


def _search_ready(n, u, v) -> bool:
    """Different free reductions and different Gauss diagrams, before and
    after free reduction, so only the global search can settle the pair."""
    ru, rv = ref.free_reduce(u), ref.free_reduce(v)
    return (ru != rv and ref.gauss(n, u) != ref.gauss(n, v)
            and ref.gauss(n, ru) != ref.gauss(n, rv))


def _screen_key(n, w):
    arrows, perm = ref.gauss(n, w)
    return (perm, ref.degree(w), ref.singularities(w),
            tuple(ref.pair_invariants(arrows).items()))


def search_pairs(seed: int) -> list:
    """Pairs that pass every screen and differ in diagram, n=3-4, 6-8 letters.

    Every word is freely reduced, so a stratum's words all start the
    search from their full length.

    Each round holds, for every (n, length), one pair made equivalent by
    3-6 random length-preserving catalog moves and three pairs drawn from a
    bucket of random words with equal permutation, degree, singularity
    count and pair invariants.
    """
    rng = random.Random(f"equiv-search/{seed}")
    strata = [(n, length) for n in (3, 4) for length in (6, 7, 8)]
    buckets = {}
    for n, length in strata:
        pool: dict = {}
        for _ in range(3000):
            w = _random_reduced(rng, n, length, (POS, NEG, VIRT, SING))
            pool.setdefault(_screen_key(n, w), set()).add(w)
        buckets[n, length] = [sorted(ws) for _, ws in sorted(pool.items()) if len(ws) > 1]
    pairs = []
    for _ in range(SEARCH_ROUNDS):
        for n, length in strata:
            while True:
                w = _random_reduced(rng, n, length, (POS, NEG, VIRT, SING))
                w2 = _random_moves(rng, n, w, rng.randint(3, 6), _LENGTH_PRESERVING, length)
                if ref.free_reduce(w2) == w2 and _search_ready(n, w, w2):
                    pairs.append((n, w, w2, True))
                    break
            drawn = 0
            while drawn < 3:
                u, v = rng.sample(rng.choice(buckets[n, length]), 2)
                if _search_ready(n, u, v):
                    pairs.append((n, u, v, False))
                    drawn += 1
    rng.shuffle(pairs)
    return pairs


def equiv_search(seed: int) -> Workload:
    pairs = search_pairs(seed)
    built = sum(1 for p in pairs if p[3])
    return _equiv_workload(
        "equiv-search", pairs, sv.Budget(nodes=SEARCH_NODES), (3, 4),
        {"items": len(pairs), "constructed": built, "bucket": len(pairs) - built,
         "n": [3, 4], "budget": f"Budget(nodes={SEARCH_NODES})"})


# --- algebra --------------------------------------------------------------

ALGEBRA_ROUNDS = 12
ALGEBRA_STRANDS = (3, 4, 5, 6)
ALGEBRA_SINGULAR = range(0, 8)


def algebra_words(seed: int) -> list:
    """Words for the per-word pipeline: each round has one word for every
    strand count 3-6 and singular-letter count 0-7; the other letters are
    positive, negative and virtual.  Round r has words of 20 + 30r/rounds
    letters, so lengths run evenly from 20 to 47."""
    rng = random.Random(f"algebra/{seed}")
    words = []
    for r in range(ALGEBRA_ROUNDS):
        length = 20 + 30 * r // ALGEBRA_ROUNDS
        for n in ALGEBRA_STRANDS:
            for d in ALGEBRA_SINGULAR:
                w = list(_random_letters(rng, n, length - d, (POS, NEG, VIRT)))
                for _ in range(d):
                    w.insert(rng.randint(0, len(w)), (SING, rng.randint(1, n - 1)))
                words.append((n, tuple(w), ref.text(tuple(w))))
    rng.shuffle(words)
    return words


def algebra_pipeline(item):
    n, _, text = item
    w = sv.parse_word(text, n)
    g = sv.gauss_of_braid(w)
    invariants = sv.pair_invariants(g)
    canonical = sv.canonical_form_trace(g)
    back = sv.braid_of_gauss(g)
    pair = sv.decompose(w)
    factors = sv.factor_singular(w)
    terms = sv.eta_hat(w)
    spectrum = sv.degree_spectrum(terms)
    surface = sv.surface_summary(w)
    printed = sv.print_word(w)
    return (g, invariants, canonical, back, pair, factors, terms, spectrum,
            surface, printed)


def _invert(word):
    flip = {POS: NEG, NEG: POS, VIRT: VIRT}
    return tuple((flip[k], i) for k, i in reversed(word))


def _expansion(word) -> dict:
    spots = [p for p, (k, _) in enumerate(word) if k == SING]
    out = {}
    for signs in itertools.product((POS, NEG), repeat=len(spots)):
        branch = list(word)
        for p, k in zip(spots, signs):
            branch[p] = (k, word[p][1])
        out[tuple(branch)] = (-1) ** signs.count(NEG)
    return out


def check_algebra(item, result) -> Outcome:
    n, w, text = item
    (g, invariants, (canonical, swaps), back, pair, factors, terms, spectrum,
     surface, printed) = result
    arrows, perm = ref.gauss(n, w)

    def need(ok, what):
        if not ok:
            raise CheckFailed(f"{what} wrong for {text!r} at n={n}")

    need(printed == text, "parse/print round trip")
    need((_arrows(g), g.perm) == (arrows, perm), "gauss_of_braid")
    need(invariants == ref.pair_invariants(arrows), "pair_invariants")
    need(ref.gauss(n, _letters(back)) == (arrows, perm), "gauss round trip")
    state = arrows
    for step in swaps:
        a, b = (tuple(x) for x in step.before)
        need(not {a[0], a[1]} & {b[0], b[1]} and tuple(step.after) == (b, a),
             "canonical_form_trace swap")
        state = ref.apply_step(state, step.position, (a, b), (b, a))
        need(state is not None, "canonical_form_trace replay")
    need(state == _arrows(canonical) and canonical.perm == perm, "canonical form")
    need(tuple((x.i, x.j, int(x.kind)) for x in pair.pure.letters) == arrows
         and tuple(pair.perm) == perm, "decompose")
    need(ref.gauss(n, _letters(sv.reassemble_pair(pair))) == (arrows, perm),
         "decompose round trip")
    assembled = ()
    for conj, i in factors.conjugated_taus:
        c = _letters(conj)
        assembled += c + ((SING, i),) + _invert(c)
    assembled += _letters(factors.virtual_part)
    need(len(factors.conjugated_taus) == ref.singularities(w)
         and ref.free_reduce(assembled) == ref.free_reduce(w), "factor_singular")
    expansion = _expansion(w)
    need({_letters(t): c for t, c in terms.terms()} == expansion, "eta_hat")
    histogram: dict = {}
    for branch in expansion:
        histogram[ref.degree(branch)] = histogram.get(ref.degree(branch), 0) + 1
    d, s = ref.singularities(w), ref.degree(w)
    need(histogram.get(s + d) == 1 and histogram.get(s - d) == 1
         and dict(spectrum) == histogram, "degree_spectrum")
    crossings = sum(1 for k, _ in w if k != VIRT)
    traversal = sv.euler_by_traversal(sv.ribbon_of_braid(sv.parse_word(text, n)))
    need(surface.euler == -(crossings + n) == traversal, "Euler characteristic")
    need(surface.boundaries >= 2 and surface.genus >= 0
         and 2 * surface.genus == 2 - surface.euler - surface.boundaries,
         "surface genus")
    return Outcome(True)


def _diagram_checks(strands):
    """Omega-equivalence of both sides of every relation instance at each
    strand count, and the pure-presentation check at n=3 and n=4.  Returns
    the certificate lengths; a relation that is not certified, or whose
    certificate does not replay, fails the run."""
    relations = []
    for n in strands:
        for (lhs, rhs), _ in sorted(ref.catalog(n).items()):
            if lhs < rhs:
                relations.append((sv.parse_word(ref.text(lhs), n),
                                  sv.parse_word(ref.text(rhs), n)))

    def run():
        lengths = []
        for lhs, rhs in relations:
            g, h = sv.gauss_of_braid(lhs), sv.gauss_of_braid(rhs)
            verdict = sv.omega_equivalent(g, h)
            if type(verdict).__name__ != "Equivalent":
                raise CheckFailed(f"relation {lhs} = {rhs} not omega-certified")
            state = _arrows(g)
            for step in verdict.trace:
                state = ref.apply_step(
                    state, step.position, tuple(tuple(a) for a in step.before),
                    tuple(tuple(a) for a in step.after))
                if state is None:
                    raise CheckFailed("omega certificate does not replay")
            if state != _arrows(h):
                raise CheckFailed("omega certificate ends elsewhere")
            lengths.append(len(verdict.trace))
        for n in (3, 4):
            report = sv.verify_sp_relations(n)
            if not report.passed:
                raise CheckFailed(f"pure relations not certified at n={n}")
            lengths.extend(len(c.verdict.trace) for c in report.checks)
        return lengths

    return run


def algebra(seed: int) -> Workload:
    words = algebra_words(seed)
    return Workload("algebra", words, algebra_pipeline, check_algebra,
                    ALGEBRA_STRANDS, per_pass=_diagram_checks(ALGEBRA_STRANDS),
                    notes={"items": len(words), "n": list(ALGEBRA_STRANDS),
                           "singular": [0, 7], "length": [20, 47]})


WORKLOADS = {"equiv-normalise": equiv_normalise, "equiv-search": equiv_search,
             "algebra": algebra}
