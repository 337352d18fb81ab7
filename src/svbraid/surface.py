"""Canonical surface of a braid diagram and its capped genus.

The diagram is thickened in the plane: each classical or singular crossing
becomes a disk (Euler weight 1), the two closure circles become annuli
(weight 0), and every strand segment becomes a band joining them.  Virtual
crossings contribute nothing: their bands are pushed apart, so the wires
simply swap slots.  The result is encoded as darts with a rotation (next
dart counterclockwise around its vertex) and a pairing (other end of the
band).

Conventions, fixed once by requiring the empty braid's ladder to be planar:
around the left circle the attachments run bottom to top, around the right
circle top to bottom, and around a crossing the cycle is out-upper,
in-upper, in-lower, out-lower.

Capping every boundary circle except the two distinguished ones (the free
circles of the annuli) gives a closed-up surface whose genus is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Kind, _trusted

CROSSING = "crossing"
CIRCLE = "circle"


@dataclass(frozen=True)
class RibbonGraph:
    """Darts with their rotation, pairing and vertex, and each vertex's
    kind.  The public constructor checks that they form a ribbon graph
    with the two closure circles; ``ribbon_of_braid``, which builds one
    from a validated word, does not run that check."""

    rotation: tuple[int, ...]
    pairing: tuple[int, ...]
    dart_vertex: tuple[int, ...]
    vertex_kind: tuple[str, ...]

    def __post_init__(self):
        darts = range(len(self.rotation))
        if len(self.pairing) != len(darts) or len(self.dart_vertex) != len(darts):
            raise ValueError("pairing, dart_vertex and rotation disagree on dart count")
        if any(type(x) is not int for f in (self.rotation, self.pairing, self.dart_vertex)
               for x in f):
            raise ValueError("darts and vertices must be ints")
        if sorted(self.rotation) != list(darts):
            raise ValueError("rotation is not a permutation of the darts")
        for d in darts:
            p = self.pairing[d]
            if p not in darts or p == d or self.pairing[p] != d:
                raise ValueError("pairing is not a fixed-point-free involution")
            if self.dart_vertex[self.rotation[d]] != self.dart_vertex[d]:
                raise ValueError("rotation moves a dart across vertices")
        for v in self.dart_vertex:
            if not 0 <= v < len(self.vertex_kind):
                raise ValueError(f"dart attached to unknown vertex {v}")
        if sum(1 for k in self.vertex_kind if k == CIRCLE) != 2:
            raise ValueError("expected exactly the two closure circles")
        if any(k not in (CROSSING, CIRCLE) for k in self.vertex_kind):
            raise ValueError("unknown vertex kind")

    @property
    def half_edges(self) -> range:
        return range(len(self.rotation))

    def edge_count(self) -> int:
        return len(self.rotation) // 2


def ribbon_of_braid(w: BraidWord) -> RibbonGraph:
    """Darts 0..n-1 on the left circle (vertex 0), four darts per crossing
    (vertices 1..m, in word order), then n darts on the right circle."""
    n = w.n
    m = sum(g.kind != Kind.VIRT for g in w.letters)
    count = 2 * n + 4 * m
    rotation = [0] * count
    pairing = [0] * count
    # left circle: dart d sits at slot d+1; bottom to top, slot n first
    for d in range(n):
        rotation[d] = (d - 1) % n
    wires = list(range(n))
    base = n
    for g in w.letters:
        i = g.index - 1
        if g.kind == Kind.VIRT:
            wires[i], wires[i + 1] = wires[i + 1], wires[i]
            continue
        # out-upper, in-upper, in-lower, out-lower are base .. base+3
        rotation[base:base + 4] = base + 1, base + 2, base + 3, base
        pairing[wires[i]], pairing[base + 1] = base + 1, wires[i]
        pairing[wires[i + 1]], pairing[base + 2] = base + 2, wires[i + 1]
        wires[i], wires[i + 1] = base, base + 3
        base += 4
    # right circle: dart base+j sits at slot j+1; top to bottom
    for j, wire in enumerate(wires):
        rotation[base + j] = base + (j + 1) % n
        pairing[wire], pairing[base + j] = base + j, wire
    return _trusted(
        RibbonGraph, rotation=tuple(rotation), pairing=tuple(pairing),
        dart_vertex=(0,) * n + tuple(v for v in range(1, m + 1) for _ in range(4))
        + (m + 1,) * n,
        vertex_kind=(CIRCLE,) + (CROSSING,) * m + (CIRCLE,))


def boundary_components(r: RibbonGraph) -> int:
    """Boundary circuits of the thickened graph: orbits of the walk that
    crosses a band and turns counterclockwise, plus the free circle of each
    annulus vertex."""
    seen = [False] * len(r.rotation)
    walks = 0
    for start in r.half_edges:
        if seen[start]:
            continue
        walks += 1
        d = start
        while not seen[d]:
            seen[d] = True
            d = r.rotation[r.pairing[d]]
    return walks + sum(1 for k in r.vertex_kind if k == CIRCLE)


def euler_characteristic(r: RibbonGraph) -> int:
    """Weight sum: disks count 1, annuli 0, bands -1."""
    disks = sum(1 for k in r.vertex_kind if k == CROSSING)
    return disks - r.edge_count()


def euler_by_traversal(r: RibbonGraph) -> int:
    """Same quantity rebuilt from the dart structure alone: vertices are
    recovered as rotation orbits, edges as pairing orbits."""
    seen = [False] * len(r.rotation)
    disks = 0
    for start in r.half_edges:
        if seen[start]:
            continue
        kind = r.vertex_kind[r.dart_vertex[start]]
        disks += kind == CROSSING
        d = start
        while not seen[d]:
            seen[d] = True
            d = r.rotation[d]
    edges = sum(1 for d in r.half_edges if d < r.pairing[d])
    return disks - edges


@dataclass(frozen=True)
class SurfaceSummary:
    euler: int
    boundaries: int
    genus: int


def surface_summary(w: BraidWord) -> SurfaceSummary:
    """Euler characteristic and boundary count of the thickened diagram,
    and the genus after capping all but the two distinguished circles."""
    r = ribbon_of_braid(w)
    chi = euler_characteristic(r)
    b = boundary_components(r)
    capped = chi + (b - 2)
    if capped % 2:
        raise AssertionError(
            f"capped Euler characteristic {capped} is odd; traversal bug")
    g = -capped // 2
    if g < 0:
        raise AssertionError(f"negative genus {g}; traversal bug")
    return SurfaceSummary(chi, b, g)


def genus(w: BraidWord) -> int:
    return surface_summary(w).genus
