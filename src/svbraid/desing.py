"""Desingularization into the virtual braid monoid algebra.

``eta_hat`` replaces every singular letter by the formal difference of the
two classical resolutions and expands multiplicatively, producing an
integer combination of singularity-free words, keyed by the words as
built: no relation, not even free cancellation, is applied.  Any two
branches differ in sign at some singular letter, so they are distinct
words and nothing merges: ``t1 t1`` gives four terms of coefficient +-1.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, Iterator

from .words import (BraidWord, Kind, Verdict, _trusted, degree, equivalent,
                    print_word, sigma, singularity_count)


class FormalSum:
    """Integer combination of braid words, zero coefficients dropped.

    Term order is insertion order; equality ignores it.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Iterable[tuple[BraidWord, int]] = ()):
        self.n = n
        self._terms: dict[BraidWord, int] = {}
        for word, coeff in terms:
            self.add(word, coeff)

    def add(self, word: BraidWord, coeff: int) -> None:
        if word.n != self.n:
            raise ValueError("strand count mismatch")
        if singularity_count(word):
            raise ValueError("formal sums hold singularity-free words only")
        if type(coeff) is not int:
            raise ValueError(f"coefficient must be an int, got {coeff!r}")
        new = self._terms.get(word, 0) + coeff
        if new:
            self._terms[word] = new
        else:
            self._terms.pop(word, None)

    def coefficient(self, word: BraidWord) -> int:
        return self._terms.get(word, 0)

    def terms(self) -> Iterator[tuple[BraidWord, int]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalSum)
                and self.n == other.n and self._terms == other._terms)

    def __repr__(self) -> str:
        parts = []
        for word, coeff in self.terms():
            sign = "+" if coeff > 0 else "-"
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            parts.append(f"{sign} {mag}{print_word(word)}")
        body = " ".join(parts) if parts else "0"
        return f"FormalSum(n={self.n}: {body})"


DegreeSpectrum = dict[int, int]

MAX_SINGULARITIES = 20


def eta_hat_expansion(w: BraidWord) -> Iterator[tuple[int, BraidWord]]:
    """Signed resolution branches, before any merging.

    Singular letters are resolved left to right, positive branch first, so
    the branches come in ``itertools.product`` order over the per-letter
    choices.  The sign is the parity of negative choices: the product of
    the same choices read as +-1.  Exactly 2^d branches for d singularities.
    A branch's letters are w's own and classical letters at w's indices,
    so the branch words are built without validating them again.
    """
    d = singularity_count(w)
    if d > MAX_SINGULARITIES:
        raise ValueError(
            f"{d} singular letters exceeds the expansion cap {MAX_SINGULARITIES}")
    choices = [(sigma(g.index), sigma(g.index, -1)) if g.kind == Kind.SING else (g,)
               for g in w.letters]
    return zip(map(prod, product((1, -1), repeat=d)),
               (_trusted(BraidWord, n=w.n, letters=ls) for ls in product(*choices)))


def eta_hat(w: BraidWord) -> FormalSum:
    """Multiplicative extension of tau -> sigma - sigma^{-1}; classical and
    virtual letters pass through unchanged."""
    out = FormalSum(w.n)
    out._terms = {word: sign for sign, word in eta_hat_expansion(w)}
    return out


def eta(w: BraidWord) -> FormalSum:
    """Restriction of eta_hat to words without virtual letters."""
    for pos, g in enumerate(w.letters):
        if g.kind == Kind.VIRT:
            raise ValueError(
                f"letter {pos + 1} is virtual; eta is defined on singular "
                f"classical words only")
    return eta_hat(w)


def degree_spectrum(f: FormalSum) -> DegreeSpectrum:
    """Histogram of term degrees weighted by absolute coefficient."""
    out: DegreeSpectrum = {}
    for word, coeff in f.terms():
        d = degree(word)
        out[d] = out.get(d, 0) + abs(coeff)
    return dict(sorted(out.items()))


def scalar_preimage_check(w: BraidWord) -> Verdict:
    """Whether eta_hat(w) is a multiple of the empty word e, as the word
    problem ``equivalent(w, e)``.  Distinct rules it out: a singularity-free
    word is its own image, separated from e by an invariant of VB_n; a
    singular word's image has one term at each of the degrees degree(w) -+ d,
    d >= 1, and degree is an invariant of VB_n, so a nonzero degree stays."""
    return equivalent(w, BraidWord(w.n))
