import random

import pytest

from svbraid import (
    BraidWord, Kind, RibbonGraph, boundary_components, euler_by_traversal,
    euler_characteristic, genus, parse_word, relation_catalog, ribbon_of_braid,
    summary_to_dict, surface_summary,
)
from svbraid.suites import random_word


def test_empty_braid_surfaces():
    s = surface_summary(BraidWord(1))
    assert (s.euler, s.boundaries, s.genus) == (-1, 3, 0)
    s = surface_summary(BraidWord(2))
    assert (s.euler, s.boundaries, s.genus) == (-2, 4, 0)
    for n in range(1, 6):
        assert surface_summary(BraidWord(n)).genus == 0


def test_single_crossing():
    s = surface_summary(parse_word("s1", 2))
    assert (s.euler, s.boundaries, s.genus) == (-3, 5, 0)
    assert surface_summary(parse_word("t1", 2)) == s
    assert surface_summary(parse_word("s1'", 2)) == s


def test_single_virtual_crossing():
    s = surface_summary(parse_word("r1", 2))
    assert (s.euler, s.boundaries, s.genus) == (-2, 4, 0)
    # one transposition on three strands cannot be drawn without a handle
    s = surface_summary(parse_word("r1", 3))
    assert (s.euler, s.boundaries, s.genus) == (-3, 3, 1)
    # a full cycle rotates one circle and stays planar
    assert surface_summary(parse_word("r1 r2", 3)).genus == 0


def test_crossing_only_words_are_planar():
    rng = random.Random(53)
    for _ in range(100):
        w = random_word(rng, rng.randint(2, 5), 10,
                        kinds=(Kind.POS, Kind.NEG, Kind.SING))
        assert surface_summary(w).genus == 0


def test_euler_computed_two_ways():
    rng = random.Random(59)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5), 12)
        r = ribbon_of_braid(w)
        assert euler_characteristic(r) == euler_by_traversal(r)
        assert (euler_characteristic(r) - boundary_components(r)) % 2 == 0


def test_genus_stable_under_defining_relations():
    for n in (3, 4):
        for inst in relation_catalog(n):
            assert genus(inst.lhs) == genus(inst.rhs), inst.family


def test_ribbon_graph_shape():
    r = ribbon_of_braid(parse_word("s1 r1 t1", 2))
    assert len(r.rotation) == len(r.pairing) == len(r.dart_vertex)
    assert sorted(k for k in r.vertex_kind if k == "circle") == ["circle", "circle"]
    assert sum(1 for k in r.vertex_kind if k == "crossing") == 2
    assert len(r.half_edges) == 2 * r.edge_count()


def test_ribbon_graph_validation():
    with pytest.raises(ValueError):
        RibbonGraph((0, 1), (0, 1), (0, 0), ("circle", "circle"))
    with pytest.raises(ValueError):
        RibbonGraph((1, 0), (1, 0), (0, 0), ("circle",))
    with pytest.raises(ValueError):
        RibbonGraph((1, 0), (1, 0), (0, 1), ("circle", "circle"))
    r = ribbon_of_braid(parse_word("s1 t2", 3))
    for bad in (dict(dart_vertex=r.dart_vertex[:-1]),             # shorter than rotation
                dict(pairing=(len(r.pairing),) + r.pairing[1:]),  # out of range
                dict(dart_vertex=(0.0,) + r.dart_vertex[1:])):    # not an int
        fields = {**vars(r), **bad}
        with pytest.raises(ValueError):
            RibbonGraph(**fields)


def test_summary_dict():
    assert summary_to_dict(surface_summary(parse_word("r1 t2 r1", 3))) == {
        "euler": -4, "boundaries": 4, "genus": 1}
