"""The pure part of the singular virtual braid monoid.

Pure words are sequences over an X/Y alphabet: ``X(i, j, sign)`` is a
classical crossing where strand i passes over strand j, ``Y(i, j)`` a
singular one with i as the distinguished (upper-slot) strand.  Each letter
names strands, not slots, so a pure word is exactly a horizontal Gauss
diagram with identity permutation, and the whole monoid splits as pure
words extended by the symmetric group acting on strand names.

``embed_pure_generator`` realises a letter as a braid word by routing the
two strands together with virtual crossings, crossing them, and routing
back.  This is the unique braid-word shape forced by the requirement that
the letter's diagram have one arrow and identity permutation; transcribing
a conjugation formula by hand is not needed and easy to get wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .words import (
    BraidWord, Equivalent, Kind, Perm, Verdict, _trusted, compose_perms, concat,
    inverse_word, invert_perm, is_perm, tau, virtual_word_of_perm,
)
from .gauss import (
    Arrow, ArrowKind, GaussWord, braid_of_gauss, gauss_of_braid, move_shapes,
    omega_equivalent, placements,
)


class PureGenerator(NamedTuple):
    i: int
    j: int
    kind: ArrowKind


def X(i: int, j: int, sign: int = 1) -> PureGenerator:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if i == j:
        raise ValueError(f"generator joins a strand to itself: {i}")
    return PureGenerator(i, j, ArrowKind.POS if sign == 1 else ArrowKind.NEG)


def Y(i: int, j: int) -> PureGenerator:
    if i == j:
        raise ValueError(f"generator joins a strand to itself: {i}")
    return PureGenerator(i, j, ArrowKind.SING)


@dataclass(frozen=True)
class PureWord:
    """X/Y letters on strands 1..n.  The public constructor validates them;
    ``decompose`` and ``sp_relation_instances``, which read the letters off
    validated diagrams, build it without ``__post_init__``."""

    n: int
    letters: tuple[PureGenerator, ...] = ()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"strand count must be a positive int, got {self.n!r}")
        if type(self.letters) is not tuple:
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for g in self.letters:
            if (type(g) is not PureGenerator or type(g.kind) is not ArrowKind
                    or type(g.i) is not int or type(g.j) is not int):
                raise ValueError(f"letter {g!r} is not a PureGenerator of ints and an ArrowKind")
            if not (1 <= g.i <= self.n and 1 <= g.j <= self.n):
                raise ValueError(f"letter {g} leaves strands 1..{self.n}")
            if g.i == g.j:
                raise ValueError(f"letter {g} joins a strand to itself")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return print_pure_word(self)


_PURE_TOKEN_RE = re.compile(r"(X\+|X-|Y)([0-9]+),([0-9]+)\Z")
_PURE_KIND = {"X+": ArrowKind.POS, "X-": ArrowKind.NEG, "Y": ArrowKind.SING}
_PURE_PREFIX = {ArrowKind.POS: "X+", ArrowKind.NEG: "X-", ArrowKind.SING: "Y"}


def print_pure_word(p: PureWord) -> str:
    if not p.letters:
        return "e"
    return " ".join(f"{_PURE_PREFIX[g.kind]}{g.i},{g.j}" for g in p.letters)


def parse_pure_word(text: str, n: int) -> PureWord:
    """Parse whitespace-separated tokens; ``e`` alone is the empty word."""
    tokens = str.split(text)  # TypeError unless text
    if not tokens:
        raise ValueError("empty input; the empty word is written 'e'")
    if tokens == ["e"]:
        return PureWord(n)
    letters = []
    for tok in tokens:
        m = _PURE_TOKEN_RE.match(tok)
        if m is None:
            raise ValueError(f"bad pure-word token {tok!r}")
        letters.append(PureGenerator(int(m.group(2)), int(m.group(3)),
                                     _PURE_KIND[m.group(1)]))
    return PureWord(n, tuple(letters))


# --- embedding into braid words -----------------------------------------

def embed_pure_generator(g: PureGenerator, n: int) -> BraidWord:
    """Braid word whose Gauss diagram is the single arrow of g with
    identity permutation; theta is the identity."""
    return braid_of_gauss(GaussWord(n, (Arrow(g.i, g.j, g.kind),)))


def embed_pure_word(p: PureWord) -> BraidWord:
    return concat(BraidWord(p.n),
                  *(embed_pure_generator(g, p.n) for g in p.letters))


# --- semidirect decomposition -------------------------------------------

@dataclass(frozen=True)
class SemidirectPair:
    pure: PureWord
    perm: Perm

    def __post_init__(self):
        if type(self.perm) is not tuple or len(self.perm) != self.pure.n or not is_perm(self.perm):
            raise ValueError(f"bad permutation {self.perm} for n={self.pure.n}")

    @property
    def n(self) -> int:
        return self.pure.n


def decompose(w: BraidWord) -> SemidirectPair:
    """Split w into its pure part (the arrows of its Gauss diagram, read as
    X/Y letters) and its strand permutation.  Reassembling as
    embed_pure_word(pure) followed by virtual_word_of_perm(perm) reproduces
    the Gauss diagram of w exactly."""
    g = gauss_of_braid(w)
    return SemidirectPair(_pure_word(w.n, g.arrows), g.perm)


def _pure_word(n: int, arrows: Iterable[Arrow]) -> PureWord:
    """The arrows of a diagram on n strands, read as X/Y letters."""
    return _trusted(PureWord, n=n, letters=tuple(PureGenerator(*a) for a in arrows))


def reassemble_pair(pair: SemidirectPair) -> BraidWord:
    return concat(embed_pure_word(pair.pure), virtual_word_of_perm(pair.perm))


def semidirect_multiply(a: SemidirectPair, b: SemidirectPair) -> SemidirectPair:
    """Product in the semidirect splitting.

    The second pure part is relabelled through the inverse of the first
    permutation: with theta written left to right, a strand named x in b's
    frame is the strand that a's permutation sends to x.  This is the
    unique action making decompose a homomorphism.
    """
    if a.n != b.n:
        raise ValueError("strand counts differ")
    name = invert_perm(a.perm)
    moved = tuple(PureGenerator(name[g.i - 1], name[g.j - 1], g.kind) for g in b.pure.letters)
    return SemidirectPair(PureWord(a.n, a.pure.letters + moved),
                          compose_perms(a.perm, b.perm))


# --- defining relations of the pure monoid ------------------------------

class SPCheck(NamedTuple):
    label: str
    family: str
    verdict: Verdict


@dataclass(frozen=True)
class SPReport:
    n: int
    checks: tuple[SPCheck, ...]

    @property
    def passed(self) -> bool:
        return all(isinstance(c.verdict, Equivalent) for c in self.checks)


_SP_FAMILIES = {"O2": "SP1", "O3": "SP2", "SO2": "SP4", "SO3": "SP5"}


def sp_relation_instances(n: int) -> tuple[tuple[str, PureWord, PureWord], ...]:
    """All defining-relation instances of the pure monoid at strand count n.

    SP1, SP2, SP4 and SP5 are the ``gauss.move_shapes`` of R2, R3, S3 and S4
    (each with its mirror) read as pure words, in the catalog's direction,
    on every ordered choice of strands; SP4, for one, is both
    Y(i,j) X(j,i,+) = X(i,j,+) Y(j,i) and X(i,j,-) Y(i,j) = Y(j,i) X(j,i,-).
    SP3 commutes letters with disjoint strand supports.
    """
    if n < 2:
        raise ValueError(f"need at least two strands, got {n}")
    strands = range(1, n + 1)
    out = [(_SP_FAMILIES[label], _pure_word(n, lhs), _pure_word(n, rhs))
           for label, before, after in move_shapes()
           for lhs, rhs in placements(before, after, strands)]
    letters = [X(i, j, e) for i in strands for j in strands if i != j
               for e in (1, -1)]
    letters += [Y(i, j) for i in strands for j in strands if i != j]
    out += [("SP3", PureWord(n, (a, b)), PureWord(n, (b, a)))
            for a in letters for b in letters if a > b and not {a.i, a.j} & {b.i, b.j}]
    return tuple(out)


def verify_sp_relations(n: int) -> SPReport:
    """Certify that both sides of every defining relation, read as the
    Gauss diagram of their embeddings (the letters as arrows, identity
    permutation), are omega-equivalent.  Any other verdict is a failure."""
    checks = []
    for family, lhs, rhs in sp_relation_instances(n):
        label = f"{family} {print_pure_word(lhs)} = {print_pure_word(rhs)}"
        g, h = (GaussWord(n, tuple(Arrow(*a) for a in p.letters)) for p in (lhs, rhs))
        checks.append(SPCheck(label, family, omega_equivalent(g, h)))
    checks.sort(key=lambda c: c.label)
    return SPReport(n, tuple(checks))


# --- singular factorization ---------------------------------------------

@dataclass(frozen=True)
class SingularFactorization:
    n: int
    conjugated_taus: tuple[tuple[BraidWord, int], ...]
    virtual_part: BraidWord


def factor_singular(w: BraidWord) -> SingularFactorization:
    """Split w as a product of conjugated singular letters times its
    singularity-free content.

    The k-th singular letter tau_i contributes (c_k, i) where c_k is the
    prefix before it with singular letters removed; the remaining factor is
    w with singular letters removed.  Reassembling as
    prod c_k tau_{i_k} c_k^{-1} times the remainder free-reduces back to w.
    """
    prefix: list = []
    taus = []
    for g in w.letters:
        if g.kind == Kind.SING:
            taus.append((_trusted(BraidWord, n=w.n, letters=tuple(prefix)), g.index))
        else:
            prefix.append(g)
    return SingularFactorization(w.n, tuple(taus),
                                 _trusted(BraidWord, n=w.n, letters=tuple(prefix)))


def reassemble_factorization(f: SingularFactorization) -> BraidWord:
    parts = []
    for c, i in f.conjugated_taus:
        parts.append(concat(c, BraidWord(f.n, (tau(i),)), inverse_word(c)))
    parts.append(f.virtual_part)
    return concat(BraidWord(f.n), *parts)
