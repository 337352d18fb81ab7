"""Batch property suites behind the ``verify`` subcommand.

Each suite returns a report with one named pass/fail check per unit of
work, ordered deterministically for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .desing import degree_spectrum, eta_hat, eta_hat_expansion, scalar_preimage_check
from .gauss import (Arrow, ArrowKind, GaussWord, braid_of_gauss, gauss_of_braid,
                    omega_equivalent)
from .pure import verify_sp_relations
from .surface import (euler_by_traversal, euler_characteristic, ribbon_of_braid,
                      surface_summary)
from .words import (BraidWord, Equivalent, Generator, Kind, Unknown, degree,
                    print_word, relation_catalog, rho, sigma, singularity_count, tau)

class SuiteCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    seed: int
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good


def random_word(rng: random.Random, n: int, max_len: int,
                kinds: tuple[Kind, ...] = tuple(Kind)) -> BraidWord:
    """A word of 0..max_len letters, the length drawn first."""
    return random_word_of_length(rng, n, rng.randint(0, max_len), kinds)


def random_word_of_length(rng: random.Random, n: int, length: int,
                          kinds: tuple[Kind, ...] = tuple(Kind)) -> BraidWord:
    return BraidWord(n, tuple(Generator(rng.choice(kinds), rng.randint(1, n - 1))
                              for _ in range(length)))


def random_gauss(rng: random.Random, n: int, max_arrows: int) -> GaussWord:
    arrows = []
    for _ in range(rng.randint(0, max_arrows)):
        tail = rng.randint(1, n)
        head = rng.choice([s for s in range(1, n + 1) if s != tail])
        arrows.append(Arrow(tail, head, rng.choice(list(ArrowKind))))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return GaussWord(n, tuple(arrows), tuple(perm))


def suite_relations(n: int, seed: int = 0) -> SuiteReport:
    checks = []
    for k, inst in enumerate(relation_catalog(n)):
        verdict = omega_equivalent(gauss_of_braid(inst.lhs), gauss_of_braid(inst.rhs))
        problem = (type(verdict).__name__ if not isinstance(verdict, Equivalent)
                   else f"{len(verdict.trace)} moves" if len(verdict.trace) > 6 else None)
        detail = (f"{print_word(inst.lhs)} == {print_word(inst.rhs)}"
                  if problem is None else f"mismatch: omega:{problem}")
        checks.append(SuiteCheck(f"{inst.family}-{k:03d}", problem is None, detail))
    return SuiteReport("relations", n, seed, tuple(checks))


def suite_gauss_roundtrip(n: int, seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    checks = []
    for k in range(200):
        g = random_gauss(rng, rng.randint(2, n), 8)
        back = gauss_of_braid(braid_of_gauss(g))
        ok = back == g
        detail = f"{len(g.arrows)} arrows" if ok else "round trip changed the diagram"
        checks.append(SuiteCheck(f"diagram-{k:03d}", ok, detail))
    return SuiteReport("gauss-roundtrip", n, seed, tuple(checks))


def suite_degree_lemma(n: int, seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    checks = []
    for k in range(500):
        w = random_word(rng, rng.randint(2, n), 12)
        d = singularity_count(w)
        s = degree(w)
        terms = list(eta_hat_expansion(w))
        spectrum = degree_spectrum(eta_hat(w))
        problems = []
        if len(terms) != 2 ** d:
            problems.append(f"size {len(terms)} != 2^{d}")
        if spectrum.get(s - d) != 1 or spectrum.get(s + d) != 1:
            problems.append("extremal terms not unique")
        if any(not s - d < deg < s + d for deg in spectrum if deg not in (s - d, s + d)):
            problems.append("term outside the open degree range")
        detail = (f"d={d} degrees {s - d}..{s + d}" if not problems
                  else "; ".join(problems))
        checks.append(SuiteCheck(f"word-{k:03d}", not problems, detail))
    return SuiteReport("degree-lemma", n, seed, tuple(checks))


def suite_sp_relations(n: int, seed: int = 0) -> SuiteReport:
    report = verify_sp_relations(n)
    checks = []
    for c in report.checks:
        ok = isinstance(c.verdict, Equivalent)
        detail = (f"{c.family} certified in {len(c.verdict.trace)} moves" if ok
                  else f"{c.family} verdict {type(c.verdict).__name__}")
        checks.append(SuiteCheck(c.label, ok, detail))
    return SuiteReport("sp-relations", n, seed, tuple(checks))


def _scalar_batch(words: list[BraidWord]) -> tuple[bool, str]:
    for w in words:
        if isinstance(scalar_preimage_check(w), Unknown):
            return False, f"undecided on {print_word(w)}"
        if singularity_count(w) >= 1 and len(degree_spectrum(eta_hat(w))) < 2:
            return False, f"singleton spectrum with d>=1 on {print_word(w)}"
    return True, f"{len(words)} words"


def suite_scalar_preimage(n: int, seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    checks = []
    if n == 2:
        alphabet = (sigma(1), sigma(1, -1), rho(1), tau(1))
        pool: list[list[Generator]] = [[]]
        for length in range(0, 7):
            words = [BraidWord(2, tuple(ls)) for ls in pool]
            ok, detail = _scalar_batch(words)
            checks.append(SuiteCheck(f"len-{length}", ok, detail))
            pool = [ls + [g] for ls in pool for g in alphabet]
    else:
        for length in range(0, 7):
            words = [random_word_of_length(rng, n, length) for _ in range(80)]
            ok, detail = _scalar_batch(words)
            checks.append(SuiteCheck(f"len-{length}", ok, detail))
    return SuiteReport("scalar-preimage", n, seed, tuple(checks))


def suite_surface(n: int, seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    checks = []
    for m in range(1, max(n, 5) + 1):
        s = surface_summary(BraidWord(m))
        checks.append(SuiteCheck(f"empty-{m}", s.genus == 0, f"genus {s.genus}"))
    def euler_two_ways(w: BraidWord) -> bool:
        r = ribbon_of_braid(w)
        return euler_characteristic(r) == euler_by_traversal(r)

    flat = euler_ok = 0
    for _ in range(100):
        w = random_word(rng, rng.randint(2, n), 10,
                        kinds=(Kind.POS, Kind.NEG, Kind.SING))
        flat += surface_summary(w).genus == 0
        euler_ok += euler_two_ways(w)
    checks.append(SuiteCheck("planar-words", flat == 100,
                             f"{flat}/100 crossing-only words have genus 0"))
    parity_ok = 0
    for _ in range(200):
        w = random_word(rng, rng.randint(2, n), 12)
        s = surface_summary(w)
        euler_ok += euler_two_ways(w)
        parity_ok += (s.euler - s.boundaries) % 2 == 0
    checks.append(SuiteCheck("euler-two-ways", euler_ok == 300,
                             f"{euler_ok}/300 weight sums match traversal"))
    checks.append(SuiteCheck("euler-boundary-parity", parity_ok == 200,
                             f"{parity_ok}/200 graphs"))
    stable = sum(1 for inst in relation_catalog(n)
                 if surface_summary(inst.lhs).genus == surface_summary(inst.rhs).genus)
    total = len(relation_catalog(n))
    checks.append(SuiteCheck("relation-stability", stable == total,
                             f"{stable}/{total} catalog pairs keep their genus"))
    return SuiteReport("surface", n, seed, tuple(checks))


_SUITES = {
    "relations": suite_relations,
    "gauss-roundtrip": suite_gauss_roundtrip,
    "degree-lemma": suite_degree_lemma,
    "sp-relations": suite_sp_relations,
    "scalar-preimage": suite_scalar_preimage,
    "surface": suite_surface,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n: int, seed: int = 0) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if n < 2:
        raise ValueError(f"need at least two strands, got {n}")
    return _SUITES[name](n, seed)
