"""Horizontal Gauss diagrams for singular virtual braid words.

A diagram is a time-ordered list of arrows between n strands plus the
strand permutation.  Strands are named by their starting slot.  An arrow
records one real crossing and has its letter's kind, POS, NEG or SING: the
tail is the over strand (for a singular crossing, the strand entering the
upper slot), and the crossing sits at the upper of its two slots.  So a
NEG arrow's tail enters the lower slot, and every other tail the upper.

Virtual letters produce no arrow at all: they only permute slots.  This
fixes the translation ``gauss_of_braid`` exactly; ``braid_of_gauss`` is
the deterministic section that routes each arrow's head next to its tail
with virtual letters, emits the crossing, and closes with a virtual
word realising the residual permutation.  The round trip
``gauss_of_braid(braid_of_gauss(g)) == g`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple

from .search import bidirectional_search
from .words import (
    BraidWord, Budget, Equivalent, Generator, Kind, TraceStep, Unknown, Verdict,
    _trusted, apply_step, identity_perm, invert_perm, compose_perms, is_perm, invert_step,
    mirror, relation_catalog, screen, virtual_word_of_perm,
)


class ArrowKind(IntEnum):
    POS = 0
    NEG = 1
    SING = 2


# The crossing kind of each letter that draws an arrow; virtual letters draw none.
_ARROW_KIND = {Kind.POS: ArrowKind.POS, Kind.NEG: ArrowKind.NEG, Kind.SING: ArrowKind.SING}
_LETTER_KIND = {v: k for k, v in _ARROW_KIND.items()}


class Arrow(NamedTuple):
    tail: int
    head: int
    kind: ArrowKind


@dataclass(frozen=True)
class GaussWord:
    """Arrows between strands 1..n in time order, and the strand
    permutation (the identity when ``perm`` is left empty).  The public
    constructor validates every field; ``gauss_of_braid`` and
    ``canonical_form_trace``, whose fields derive from a validated word or
    diagram, build it without ``__post_init__``."""

    n: int
    arrows: tuple[Arrow, ...] = ()
    perm: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"strand count must be a positive int, got {self.n!r}")
        if type(self.arrows) is not tuple or type(self.perm) is not tuple:
            raise ValueError("arrows and perm must be tuples")
        if not self.perm:
            object.__setattr__(self, "perm", identity_perm(self.n))
        for a in self.arrows:
            if (type(a) is not Arrow or type(a.kind) is not ArrowKind
                    or type(a.tail) is not int or type(a.head) is not int):
                raise ValueError(f"arrow {a!r} is not an Arrow of int strands and an ArrowKind")
            if not (1 <= a.tail <= self.n and 1 <= a.head <= self.n):
                raise ValueError(f"arrow {a} leaves strands 1..{self.n}")
            if a.tail == a.head:
                raise ValueError(f"arrow {a} joins a strand to itself")
        if len(self.perm) != self.n or not is_perm(self.perm):
            raise ValueError(f"bad strand permutation {self.perm}")

    def __len__(self) -> int:
        return len(self.arrows)


# --- translation --------------------------------------------------------

def gauss_of_braid(w: BraidWord) -> GaussWord:
    pos = list(range(1, w.n + 1))
    arrows = []
    for kind, i in w.letters:
        a, b = pos[i - 1], pos[i]
        arrow_kind = _ARROW_KIND.get(kind)
        if arrow_kind is not None:
            arrows.append(Arrow(b, a, arrow_kind) if arrow_kind == ArrowKind.NEG
                          else Arrow(a, b, arrow_kind))
        pos[i - 1], pos[i] = b, a
    return _trusted(GaussWord, n=w.n, arrows=tuple(arrows), perm=invert_perm(tuple(pos)))


def braid_of_gauss(g: GaussWord) -> BraidWord:
    pos = list(range(g.n + 1))  # the strand at each slot 1..n
    slot = pos[:]               # the slot of each strand 1..n
    letters = []

    def cross(kind: Kind, i: int):
        letters.append(Generator(kind, i))
        a, b = pos[i], pos[i + 1]
        pos[i], pos[i + 1], slot[a], slot[b] = b, a, i + 1, i

    for tail, head, kind in g.arrows:
        side = -1 if kind == ArrowKind.NEG else 1
        while (h := slot[head]) != (target := slot[tail] + side):
            cross(Kind.VIRT, h if h < target else h - 1)
        cross(_LETTER_KIND[kind], min(h, slot[tail]))

    closing = virtual_word_of_perm(compose_perms(tuple(pos[1:]), g.perm))
    return _trusted(BraidWord, n=g.n, letters=tuple(letters) + closing.letters)


# --- invariants ---------------------------------------------------------

PairInvariant = dict[tuple[int, int], tuple[int, int]]
_PAIR_STEP = {ArrowKind.POS: (1, 0), ArrowKind.NEG: (-1, 0), ArrowKind.SING: (0, 1)}


def pair_invariants(g: GaussWord) -> PairInvariant:
    """Per unordered strand pair: (signed classical crossing count, singular
    crossing count).  All-zero pairs are omitted.  Invariant under every
    omega move: cancellations leave the sums alone, reorderings obviously so.
    """
    out: PairInvariant = {}
    for a in g.arrows:
        key = (a.tail, a.head) if a.tail < a.head else (a.head, a.tail)
        w, s = out.get(key, (0, 0))
        dw, ds = _PAIR_STEP[a.kind]
        out[key] = (w + dw, s + ds)
    return {key: ws for key, ws in sorted(out.items()) if ws != (0, 0)}


def _arrow_key(a: Arrow):
    return (min(a.tail, a.head), max(a.tail, a.head), int(a.kind), a.tail)


def canonical_form_trace(g: GaussWord) -> tuple[GaussWord, tuple[TraceStep, ...]]:
    """Lexicographically least arrow sequence reachable by swapping adjacent
    arrows with disjoint supports, with the swaps that realise it.

    Greedy selection: repeatedly pull the least arrow that can reach the
    front past disjoint neighbours.  (A plain bubble pass can stall on a
    non-minimal fixpoint when an arrow blocks a smaller distant one.)
    """
    arrows = list(g.arrows)
    trace: list[TraceStep] = []
    for q in range(len(arrows)):
        best_j = q
        best = _arrow_key(arrows[q])
        blocked = {arrows[q].tail, arrows[q].head}
        for j in range(q + 1, len(arrows)):
            if len(blocked) >= g.n - 1:
                break  # an arrow joins two strands, so none misses them all from here
            a = arrows[j]
            # movable to the front of the suffix iff it misses every strand before it
            if a.tail not in blocked and a.head not in blocked:
                kj = _arrow_key(a)
                if kj < best:
                    best, best_j = kj, j
            blocked.update((a.tail, a.head))
        for j in range(best_j, q, -1):
            a, b = arrows[j - 1], arrows[j]
            trace.append(TraceStep("swap", j - 1, (a, b), (b, a)))
            arrows[j - 1], arrows[j] = b, a
    return _trusted(GaussWord, n=g.n, arrows=tuple(arrows), perm=g.perm), tuple(trace)


def canonical_form(g: GaussWord) -> GaussWord:
    return canonical_form_trace(g)[0]


# --- omega moves --------------------------------------------------------

_SHAPE_LABELS = {"R2": "O2", "R3": "O3", "S3": "SO2", "S4": "SO3"}


def _normalised(*sides: tuple[Arrow, ...]):
    """``sides`` with strands renamed 1, 2, ... in order of first appearance
    across them, and the strands in that order."""
    seen: dict[int, int] = {}
    renamed = tuple(tuple(Arrow(seen.setdefault(a.tail, len(seen) + 1),
                                seen.setdefault(a.head, len(seen) + 1), a.kind)
                          for a in side) for side in sides)
    return renamed, tuple(seen)


def _place(shape: tuple[Arrow, ...], strands) -> tuple[Arrow, ...]:
    return tuple(Arrow(strands[a.tail - 1], strands[a.head - 1], a.kind) for a in shape)


def placements(before: tuple[Arrow, ...], after: tuple[Arrow, ...], strands):
    """Both sides of a shape on strands 1..m, placed together on every
    ordered choice of m distinct ``strands``."""
    m = len(_normalised(before, after)[1])
    return [(_place(before, chosen), _place(after, chosen))
            for chosen in permutations(strands, m)]


@lru_cache(maxsize=None)
def move_shapes() -> tuple[tuple[str, tuple[Arrow, ...], tuple[Arrow, ...]], ...]:
    """The omega moves as ``(label, before, after)``: the Gauss diagrams of
    both sides of each R2, R3, S3 and S4 instance of ``relation_catalog(3)``
    and of its mirror, labelled O2, O3, SO2 and SO3, with strands renamed in
    order of first appearance (so instances at other slots coincide)."""
    shapes: dict = {}
    for family, lhs, rhs in relation_catalog(3):
        for u, v in ((lhs, rhs), (mirror(lhs), mirror(rhs))):
            if family in _SHAPE_LABELS:
                sides, _ = _normalised(gauss_of_braid(u).arrows, gauss_of_braid(v).arrows)
                shapes[(_SHAPE_LABELS[family], *sides)] = None
    return tuple(shapes)


@lru_cache(maxsize=None)
def _moves_from() -> dict[tuple[Arrow, ...], list[tuple[str, tuple[Arrow, ...]]]]:
    """``move_shapes`` in both directions, keyed by the side they replace,
    whose strands are renamed in order of first appearance."""
    table: dict = {}
    for label, lhs, rhs in move_shapes():
        for sides in ((lhs, rhs), (rhs, lhs)):
            (before, after), _ = _normalised(*sides)
            table.setdefault(before, []).append((label, after))
    return table


def _omega_moves(arrows: tuple[Arrow, ...], strands, max_arrows: int):
    """Single omega moves, yielded lazily in a fixed order, as (label,
    position, before, after, resulting arrows): each ``move_shapes`` shape,
    in either direction, at every window of arrows it matches under a
    renaming of strands; then a side with nothing before it inserted at
    every position on every ordered choice of ``strands``; then
    disjoint-support swaps.  Each move is a catalog relation or its mirror read on diagrams,
    so it is sound."""
    k = len(arrows)
    table = _moves_from()
    for size in sorted({len(before) for before in table} - {0}):
        for p in range(k - size + 1):
            (key,), names = _normalised(arrows[p:p + size])
            for label, after in table.get(key, ()):
                if k - size + len(after) <= max_arrows:
                    placed = _place(after, names)
                    yield (label, p, arrows[p:p + size], placed,
                           arrows[:p] + placed + arrows[p + size:])
    for label, after in table.get((), ()):
        if k + len(after) <= max_arrows:
            for _, new in placements((), after, strands):
                for p in range(k + 1):
                    yield label, p, (), new, arrows[:p] + new + arrows[p:]
    for p in range(k - 1):
        a, b = arrows[p], arrows[p + 1]
        if not {a.tail, a.head} & {b.tail, b.head}:
            yield "swap", p, (a, b), (b, a), arrows[:p] + (b, a) + arrows[p + 2:]


def replay_omega_trace(g: GaussWord, trace: Iterable[TraceStep]) -> GaussWord:
    arrows = g.arrows
    for step in trace:
        arrows = apply_step(arrows, step)
    return GaussWord(g.n, arrows, g.perm)


def omega_equivalent(g: GaussWord, h: GaussWord) -> Verdict:
    """Three-valued omega-move equivalence of diagrams, same shape as the
    word problem: commutation-only canonicalisation, then ``words.screen``
    on g and h with their sections, then bidirectional search over single
    moves under ``Budget.nodes`` and the search's widening arrow cap.  Like
    the word search, it inserts arrows only on the strands g and h touch
    plus the first untouched one.  Every Equivalent trace is replayed from
    g to h before it is returned."""
    if g.n != h.n:
        raise ValueError("strand counts differ")
    cg, trace_g = canonical_form_trace(g)
    ch, trace_h = canonical_form_trace(h)
    if cg == ch:
        trace = trace_g + tuple(invert_step(s) for s in reversed(trace_h))
    else:
        distinct = screen(braid_of_gauss(g), braid_of_gauss(h), g, h)
        if distinct is not None:
            return distinct
        touched = {s for a in g.arrows + h.arrows for s in (a.tail, a.head)}
        untouched = [s for s in range(1, g.n + 1) if s not in touched]
        strands = sorted(touched.union(untouched[:1]))
        found = bidirectional_search(
            g.arrows, h.arrows, lambda state, cap: _omega_moves(state, strands, cap),
            max_nodes=Budget.nodes)
        if isinstance(found, Unknown):
            return found
        trace = tuple(TraceStep(*move) for move in found)
    if replay_omega_trace(g, trace) != h:
        raise AssertionError("omega_equivalent produced a trace that does not replay")
    return Equivalent(trace)


# --- serialisation ------------------------------------------------------

_KIND_TO_CHAR = {ArrowKind.POS: "+", ArrowKind.NEG: "-", ArrowKind.SING: "s"}
_CHAR_TO_KIND = {v: k for k, v in _KIND_TO_CHAR.items()}


def gauss_to_dict(g: GaussWord) -> dict:
    return {
        "n": g.n,
        "arrows": [{"tail": a.tail, "head": a.head, "kind": _KIND_TO_CHAR[a.kind]}
                   for a in g.arrows],
        "perm": list(g.perm),
    }


def gauss_from_dict(d: dict) -> GaussWord:
    try:
        arrows = tuple(Arrow(a["tail"], a["head"], _CHAR_TO_KIND[a["kind"]])
                       for a in d["arrows"])
        return GaussWord(d["n"], arrows, tuple(d["perm"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed gauss word data: {exc}") from exc
