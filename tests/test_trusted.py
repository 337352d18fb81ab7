"""The library builders that skip ``__post_init__`` (``words._trusted``)
may only build what the public, validating constructors accept."""

import random
from dataclasses import fields

import pytest

from svbraid import (
    Arrow, ArrowKind, BraidWord, Generator, GaussWord, IndexRangeError, Kind,
    RibbonGraph, braid_of_gauss, canonical_form, decompose, eta_hat_expansion,
    factor_singular, gauss_of_braid, ribbon_of_braid, theta, virtual_word_of_perm,
)
from svbraid.suites import random_gauss, random_word


def rebuilt(obj):
    """``obj`` built again through its public constructor."""
    return type(obj)(*(getattr(obj, f.name) for f in fields(obj)))


def test_trusted_builders_build_what_the_constructors_accept():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(2, 6)
        w = random_word(rng, n, 10)
        g = gauss_of_braid(w)
        f = factor_singular(w)
        built = [word for _, word in eta_hat_expansion(w)]
        built += [g, canonical_form(g), braid_of_gauss(g), virtual_word_of_perm(theta(w)),
                  *(c for c, _ in f.conjugated_taus), f.virtual_part, decompose(w).pure,
                  ribbon_of_braid(w)]
        h = random_gauss(rng, n, 10)
        built += [canonical_form(h), braid_of_gauss(h)]
        for obj in built:
            assert rebuilt(obj) == obj, (w, obj)


def test_public_constructors_still_reject_bad_fields():
    with pytest.raises(IndexRangeError):
        BraidWord(3, (Generator(Kind.POS, 3),))
    with pytest.raises(ValueError):
        GaussWord(3, (Arrow(1, 4, ArrowKind.POS),))
    with pytest.raises(ValueError):  # dart 1 is paired with a dart that is not paired back
        RibbonGraph((0, 1, 2, 3), (1, 2, 3, 0), (0, 0, 1, 1), ("circle", "circle"))
    with pytest.raises(ValueError):
        virtual_word_of_perm(())
