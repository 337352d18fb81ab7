import random

import pytest

from svbraid import Equivalent, TraceStep, Unknown, suites
from svbraid.suites import (SUITE_NAMES, random_gauss, random_word, run_suite)


def test_every_suite_passes_at_small_scale():
    for name in SUITE_NAMES:
        report = run_suite(name, 3, seed=1)
        assert report.passed, (name, report.counts())
        assert report.suite == name
        good, bad = report.counts()
        assert bad == 0 and good == len(report.checks)


def test_relations_suite_fails_a_certificate_over_six_moves(monkeypatch):
    def seven_moves(g, h):
        return Equivalent((TraceStep("O2", 0, (), ()),) * 7)
    monkeypatch.setattr(suites, "omega_equivalent", seven_moves)
    report = suites.suite_relations(3)
    assert not report.passed
    assert all(not c.passed and c.detail == "mismatch: omega:7 moves"
               for c in report.checks)


def test_scalar_suite_fails_on_an_undecided_word(monkeypatch):
    monkeypatch.setattr(suites, "scalar_preimage_check", lambda w: Unknown(3, 0, 0))
    report = suites.suite_scalar_preimage(3)
    assert not report.passed
    assert all(not c.passed and c.detail.startswith("undecided on ")
               for c in report.checks)
    assert report.checks[0].detail == "undecided on e"


def test_every_suite_needs_two_strands():
    for name in SUITE_NAMES:
        for n in (1, 0):
            with pytest.raises(ValueError, match=f"need at least two strands, got {n}"):
                run_suite(name, n)


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("nonsense", 3)


def test_generators_are_seed_deterministic():
    a = random_word(random.Random(99), 4, 10)
    b = random_word(random.Random(99), 4, 10)
    assert a == b
    g = random_gauss(random.Random(99), 4, 6)
    h = random_gauss(random.Random(99), 4, 6)
    assert g == h
