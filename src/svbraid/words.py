"""Words in the singular virtual braid monoid on n strands.

A word is a sequence of generator letters, each acting on two adjacent
strand slots i, i+1 (1 <= i <= n-1):

    s<i>     positive classical crossing
    s<i>'    negative classical crossing (also accepted as ``s<i>^-1``)
    r<i>     virtual crossing
    t<i>     singular crossing

Tokens are separated by whitespace; the empty word is written ``e``.
Printing always uses the apostrophe form and single spaces, so
``parse_word(print_word(w), w.n) == w`` holds letter for letter.

Permutations are tuples of 1-based images: position i holds pi(i), and a
word's strand permutation sends the strand entering slot i on the left to
the slot it occupies on the right.  Letters compose left to right, in
diagram order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import groupby, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .search import Unknown, bidirectional_search


class Kind(IntEnum):
    POS = 0
    NEG = 1
    VIRT = 2
    SING = 3


class Generator(NamedTuple):
    kind: Kind
    index: int


def sigma(i: int, sign: int = 1) -> Generator:
    return Generator(Kind.POS if sign > 0 else Kind.NEG, i)


def rho(i: int) -> Generator:
    return Generator(Kind.VIRT, i)


def tau(i: int) -> Generator:
    return Generator(Kind.SING, i)


class ParseError(ValueError):
    """Malformed word text; ``position`` is the 1-based column of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class IndexRangeError(ValueError):
    """Letter index outside 1..n-1; carries the offending token."""

    def __init__(self, message: str, token: str, position: int | None = None):
        super().__init__(message)
        self.token = token
        self.position = position


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built
    without ``__post_init__``.  Only for library builders whose every field
    derives from objects that were validated already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class BraidWord:
    """Immutable word; ``n`` is the strand count and ``letters`` a tuple of
    ``Generator``s, stored as given.  The public constructor validates
    them; library builders that derive a word from validated objects build
    it with ``_trusted``, without that check."""

    n: int
    letters: tuple[Generator, ...] = ()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"strand count must be a positive int, got {self.n!r}")
        if type(self.letters) is not tuple:
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        top = self.n - 1
        for g in self.letters:
            kind, index = g if type(g) is Generator else (None, None)
            if type(kind) is not Kind or type(index) is not int:
                raise ValueError(f"letter {g!r} is not a Generator of a Kind and an int")
            if not 1 <= index <= top:
                raise IndexRangeError(
                    f"letter index {index} out of range 1..{top} at {self.n} strands",
                    token=_token(g),
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return print_word(self)


def concat(*words: BraidWord) -> BraidWord:
    if not words:
        raise ValueError("need at least one word")
    n = words[0].n
    if any(w.n != n for w in words):
        raise ValueError("strand counts differ")
    letters: tuple[Generator, ...] = ()
    for w in words:
        letters += w.letters
    return BraidWord(n, letters)


_MIRROR_KIND = {Kind.POS: Kind.NEG, Kind.NEG: Kind.POS}


def mirror(w: BraidWord) -> BraidWord:
    """Reversed word with s <-> s' swapped and r, t kept: an anti-automorphism
    of the monoid, so it sends each defining relation to a consequence of the
    catalog."""
    return BraidWord(w.n, tuple(Generator(_MIRROR_KIND.get(g.kind, g.kind), g.index)
                                for g in reversed(w.letters)))


def inverse_word(w: BraidWord) -> BraidWord:
    """The mirror, which is the inverse of a word without singular letters;
    singular letters have no inverse in the monoid and are rejected."""
    if singularity_count(w):
        raise ValueError("singular letters are not invertible")
    return mirror(w)


# --- text form ---------------------------------------------------------

_TOKEN_RE = re.compile(r"([srt])([0-9]+)('|\^-1)?\Z")
_KIND_CHAR = {Kind.POS: "s", Kind.NEG: "s", Kind.VIRT: "r", Kind.SING: "t"}


def _token(g: Generator) -> str:
    suffix = "'" if g.kind == Kind.NEG else ""
    return f"{_KIND_CHAR[g.kind]}{g.index}{suffix}"


def print_word(w: BraidWord) -> str:
    if not w.letters:
        return "e"
    return " ".join(_token(g) for g in w.letters)


_TOKEN_KIND = {("s", None): Kind.POS, ("s", "'"): Kind.NEG, ("s", "^-1"): Kind.NEG,
               ("r", None): Kind.VIRT, ("t", None): Kind.SING}


@lru_cache(maxsize=1024)
def _token_letter(token: str) -> Generator | None:
    """The letter ``token`` names at any strand count, or None when it is
    malformed or has index 0.  Cached by token, not by strand count, so a
    word at many strands costs no table of every index."""
    m = _TOKEN_RE.match(token)
    kind = m and _TOKEN_KIND.get((m[1], m[3]))
    return Generator(kind, int(m[2])) if kind is not None and int(m[2]) else None


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated tokens; ``e`` alone is the empty word."""
    if n < 2:
        raise ValueError(f"strand count must be at least 2 to parse, got {n}")
    letters = tuple(map(_token_letter, str.split(text)))  # TypeError unless text
    if letters and None not in letters and max(map(itemgetter(1), letters)) < n:
        return BraidWord(n, letters)
    # the empty word, or a fault to report with its column
    spans = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]
    if not spans:
        raise ParseError("empty input; the empty word is written 'e'", 1)
    if any(tok == "e" for tok, _ in spans):
        if len(spans) > 1:
            pos = next(p for tok, p in spans if tok == "e")
            raise ParseError("'e' must stand alone", pos)
        return BraidWord(n, ())
    letters = []
    for tok, pos in spans:
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise ParseError(f"bad token {tok!r}", pos)
        char, digits, suffix = m.groups()
        if suffix and char != "s":
            raise ParseError(f"inverse marker only applies to s tokens, got {tok!r}", pos)
        index = int(digits)
        if not 1 <= index <= n - 1:
            raise IndexRangeError(
                f"index {index} out of range 1..{n - 1} in token {tok!r}",
                token=tok,
                position=pos,
            )
        letters.append(_token_letter(tok))
    return BraidWord(n, tuple(letters))


# --- permutations as tuples of 1-based images --------------------------

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_perm(p: Perm) -> bool:
    return all(type(v) is int for v in p) and sorted(p) == list(range(1, len(p) + 1))


def compose_perms(first: Perm, second: Perm) -> Perm:
    """Left-to-right composition: the result sends i to second(first(i))."""
    return tuple(second[first[i] - 1] for i in range(len(first)))


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def theta(w: BraidWord) -> Perm:
    """Strand permutation: entry i is the final slot of the strand entering
    slot i.  Every letter, classical or not, swaps its two slots."""
    pos = list(range(1, w.n + 1))
    for g in w.letters:
        i = g.index - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return invert_perm(tuple(pos))


def virtual_word_of_perm(p: Perm) -> BraidWord:
    """Virtual-only word whose strand permutation is p.

    Deterministic routing: for each slot j from the left, bubble the strand
    that must end there leftward into place from slot a+1.  This is the run
    normal form: one run r<a> ... r<j> per slot j, empty when a = j-1.
    """
    n = len(p)
    if not n or not is_perm(p):
        raise ValueError(f"bad permutation {p}")
    target = list(invert_perm(p))
    pos = list(range(1, n + 1))
    letters = []
    for k in range(n):
        c = pos.index(target[k])
        for m in range(c, k, -1):
            letters.append(rho(m))
            pos[m - 1], pos[m] = pos[m], pos[m - 1]
    return _trusted(BraidWord, n=n, letters=tuple(letters))


def degree(w: BraidWord) -> int:
    """Sum of classical crossing signs; virtual and singular letters count 0."""
    kinds = bytes(map(itemgetter(0), w.letters))
    return kinds.count(Kind.POS) - kinds.count(Kind.NEG)


def singularity_count(w: BraidWord) -> int:
    return bytes(map(itemgetter(0), w.letters)).count(Kind.SING)


# --- relations ----------------------------------------------------------

class RelationInstance(NamedTuple):
    family: str
    lhs: BraidWord
    rhs: BraidWord


# The presentation: (family, index pattern, lhs, rhs), each side a template
# word on slots i and j.  Rows of one family and pattern are instantiated
# together at each (i, j), so R2's two orientations alternate per i.
_INDEX_PATTERNS = {
    "apart": lambda i, j: abs(i - j) >= 2,
    "above": lambda i, j: j >= i + 2,
    "same": lambda i, j: j == i,
    "next": lambda i, j: j == i + 1,
}

_RELATIONS = (
    ("R0", "above", "si sj", "sj si"),
    ("R2", "same", "si si'", ""),
    ("R2", "same", "si' si", ""),
    ("R3", "next", "si sj si", "sj si sj"),
    ("V1", "above", "ri rj", "rj ri"),
    ("V2", "apart", "si rj", "rj si"),
    ("V3", "same", "ri ri", ""),
    ("V4", "next", "ri rj ri", "rj ri rj"),
    ("V5", "next", "ri sj ri", "rj si rj"),
    ("S1", "above", "ti tj", "tj ti"),
    ("S2", "apart", "ti sj", "sj ti"),
    ("S3", "same", "ti si", "si ti"),
    ("S4", "next", "si sj ti", "tj si sj"),
    ("SV1", "apart", "ri tj", "tj ri"),
    ("SV2", "next", "ri tj ri", "rj ti rj"),
)

_TEMPLATE_KIND = {"s": Kind.POS, "r": Kind.VIRT, "t": Kind.SING}


def _instantiate(template: str, i: int, j: int) -> tuple[Generator, ...]:
    return tuple(Generator(Kind.NEG if tok.endswith("'") else _TEMPLATE_KIND[tok[0]],
                           i if tok[1] == "i" else j) for tok in template.split())


@lru_cache(maxsize=None)
def relation_catalog(n: int) -> tuple[RelationInstance, ...]:
    """Every defining relation instance at n strands, read off the table
    ``_RELATIONS`` in its order.

    Families: R0/R2/R3 classical, V1-V5 virtual and mixed, S1-S4 singular
    and mixed, SV1/SV2 singular-virtual.  Each row ranges over one of four
    index patterns: ordered pairs with |i-j| >= 2 when the two letters
    differ in kind (V2, S2, SV1), pairs with j >= i+2 when they do not (R0,
    V1, S1; the swapped statement is the same equation), j = i (R2, V3, S3)
    and j = i+1 (R3, V4, V5, S4, SV2).
    """
    pairs = [(i, j) for i in range(1, n) for j in range(1, n)]
    out: list[RelationInstance] = []
    for (family, pattern), rows in groupby(_RELATIONS, key=lambda row: row[:2]):
        sides = [row[2:] for row in rows]
        keep = _INDEX_PATTERNS[pattern]
        out += [RelationInstance(family, BraidWord(n, _instantiate(lhs, i, j)),
                                 BraidWord(n, _instantiate(rhs, i, j)))
                for i, j in pairs if keep(i, j) for lhs, rhs in sides]
    return tuple(out)


# --- rewriting and traces ----------------------------------------------

class TraceStep(NamedTuple):
    """One relation application: replace ``before`` by ``after`` at
    ``position``.  Carrying both sides makes the step replayable even for
    insertions, where label and position alone would not determine it."""

    label: str
    position: int
    before: tuple[Generator, ...]
    after: tuple[Generator, ...]


def invert_step(step: TraceStep) -> TraceStep:
    return TraceStep(step.label, step.position, step.after, step.before)


def apply_step(letters: tuple[Generator, ...], step: TraceStep) -> tuple[Generator, ...]:
    lo, hi = step.position, step.position + len(step.before)
    if lo < 0 or hi > len(letters) or letters[lo:hi] != step.before:
        raise ValueError(f"trace step does not match word at position {step.position}")
    return letters[:lo] + step.after + letters[hi:]


def replay_trace(w: BraidWord, trace: Iterable[TraceStep]) -> BraidWord:
    letters = w.letters
    for step in trace:
        letters = apply_step(letters, step)
    return BraidWord(w.n, letters)


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent s s' / s' s / r r pairs until none remain."""
    return free_reduce_trace(w)[0]


def free_reduce_trace(w: BraidWord) -> tuple[BraidWord, tuple[TraceStep, ...]]:
    """Reduction together with the relation applications that realise it."""
    stack: list[Generator] = []
    trace: list[TraceStep] = []
    for g in w.letters:
        if stack and _cancels(stack[-1], g):
            a = stack.pop()
            label = "V3" if a.kind == Kind.VIRT else "R2"
            trace.append(TraceStep(label, len(stack), (a, g), ()))
        else:
            stack.append(g)
    return (BraidWord(w.n, tuple(stack)) if trace else w), tuple(trace)


def _cancels(a: Generator, b: Generator) -> bool:
    """b is the mirror of a, which is its inverse unless a is singular."""
    return a.index == b.index and a.kind != Kind.SING and \
        b.kind == _MIRROR_KIND.get(a.kind, a.kind)


def _straighten(letters: tuple[Generator, ...], offset: int = 0):
    """The run normal form (``virtual_word_of_perm``) of the virtual
    ``letters``, and the V1, V3 and V4 steps from ``letters`` to it, shifted
    by ``offset``; no search.  Letters enter from the right end and move
    right through the runs built so far: r<m> passes a run r<a> ... r<j>
    that it misses (m > a+1) by V1s, and one that covers it (m < a) by V1s,
    a V4 and V1s, leaving as r<m+1>.  It stops at the first run that it
    tops (m = a+1) or whose top it cancels by V3 (m = a)."""
    # run j+1 is r<tops[j]> ... r<j+1>, empty as long as tops[j] = j
    tops = list(range(max((g.index for g in letters), default=0)))
    steps: list[TraceStep] = []

    def commute(q: int, m: int, run: range) -> int:
        steps.extend(TraceStep("V1", p, (rho(m), rho(i)), (rho(i), rho(m)))
                     for p, i in enumerate(run, q))
        return q + len(run)

    for q in reversed(range(offset, offset + len(letters))):
        m, j = letters[q - offset].index, 0
        while not tops[j] <= m <= tops[j] + 1:
            a, run = tops[j], range(tops[j], j, -1)
            if m > a:
                q = commute(q, m, run)
            else:
                q = commute(q, m, run[:a - m - 1])
                steps.append(TraceStep("V4", q, (rho(m), rho(m + 1), rho(m)),
                                       (rho(m + 1), rho(m), rho(m + 1))))
                q, m = commute(q + 2, m + 1, run[a - m + 1:]), m + 1
            j += 1
        if m == tops[j]:
            steps.append(TraceStep("V3", q, (rho(m), rho(m)), ()))
        tops[j] = m if m > tops[j] else m - 1
    word = tuple(rho(i) for j, a in enumerate(tops) for i in range(a, j, -1))
    return word, tuple(steps)


# Each letter packs into one character, code point 4*(index-1) + kind, so
# search states find, slice and hash at C speed at any strand count.

def encode_letters(letters: Iterable[Generator]) -> str:
    return "".join(chr(4 * (g.index - 1) + g.kind) for g in letters)


def decode_letters(data: str) -> tuple[Generator, ...]:
    return tuple(Generator(Kind(c & 3), (c >> 2) + 1) for c in map(ord, data))


@lru_cache(maxsize=None)
def _rewrite_rules(n: int) -> tuple[tuple[str, str, str], ...]:
    rules = []
    for family, lhs, rhs in relation_catalog(n):
        a, b = encode_letters(lhs.letters), encode_letters(rhs.letters)
        rules.append((family, a, b))
        rules.append((family, b, a))
    return tuple(sorted(set(rules)))


def _byte_neighbors(state: str, rules, max_len: int):
    """All one-step rewrites of ``state``, as (label, pos, pat, rep, result)."""
    out = []
    size = len(state)
    for label, pat, rep in rules:
        lp = len(pat)
        if size - lp + len(rep) > max_len:
            continue
        if lp == 0:
            for p in range(size + 1):
                out.append((label, p, pat, rep, state[:p] + rep + state[p:]))
        else:
            p = state.find(pat)
            while p != -1:
                out.append((label, p, pat, rep, state[:p] + rep + state[p + lp:]))
                p = state.find(pat, p + 1)
    return out


def _touched_strands(*letters: tuple[Generator, ...]) -> int:
    """How many strands ``letters`` touch: the highest slot a letter reaches."""
    return max((g.index + 1 for seq in letters for g in seq), default=1)


def _word_search(start: tuple[Generator, ...], goal: tuple[Generator, ...],
                 n: int, max_nodes: int, offset: int = 0):
    """Bidirectional search between two letter sequences at n strands under
    ``_rewrite_rules`` instantiated on the strands they touch plus one to
    route through (at most n).  Letters pack alike at any n, so a
    certificate found there holds at n.  Returns the moves as TraceSteps
    shifted by ``offset``, or the search's Unknown once the node budget is spent."""
    rules = _rewrite_rules(min(n, _touched_strands(start, goal) + 1))
    found = bidirectional_search(encode_letters(start), encode_letters(goal),
                                 lambda state, cap: _byte_neighbors(state, rules, cap),
                                 max_nodes=max_nodes)
    if isinstance(found, Unknown):
        return found
    return tuple(TraceStep(label, p + offset, decode_letters(pat), decode_letters(rep))
                 for label, p, pat, rep in found)


# --- equivalence search -------------------------------------------------

@dataclass(frozen=True)
class Budget:
    """Search limit: ``nodes`` caps the stored states of every search, the
    slide searches of diagram normalisation included."""

    nodes: int = 200_000

    def __post_init__(self):
        if type(self.nodes) is not int or self.nodes <= 0:
            raise ValueError(f"node budget must be a positive int, got {self.nodes!r}")


@dataclass(frozen=True)
class Equivalent:
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class Distinct:
    invariant: str
    left: object
    right: object


Verdict = Equivalent | Distinct | Unknown


def _diagram_normal_trace(w: BraidWord, section: tuple[Generator, ...], budget: Budget):
    """Trace from w to ``section``, the letters of the section
    ``braid_of_gauss(gauss_of_braid(w))`` of w's Gauss diagram, or the
    Unknown of the first slide search that fails.

    One pass left to right.  The virtual letters met so far form a frame;
    at each crossing the frame is straightened and the crossing slides
    through it into the section's next routing letters and crossing (the
    detour move), so every search is over words with one crossing.  The
    virtual rest of the slide is the next frame, and the last frame is
    straightened to the section's virtual tail.  ``_straighten`` needs no
    search, and routing runs are already straight, so a section word needs
    no search at all.  Every slide search gets the caller's budget.
    """
    trace, done, frame = (), 0, ()
    for x in w.letters:
        if x.kind == Kind.VIRT:
            frame += (x,)
            continue
        c, steps = _straighten(frame, done)
        trace += steps
        k = next(k for k in range(done, len(section)) if section[k].kind != Kind.VIRT)
        a, y = section[done:k], section[k]
        frame = _straighten((rho(y.index),) + a[::-1] + c + (rho(x.index),))[0]
        if c + (x,) != a + (y,) + frame:
            found = _word_search(c + (x,), a + (y,) + frame, w.n, budget.nodes, done)
            if isinstance(found, Unknown):
                return found
            trace += found
        done = k + 1
    return trace + _straighten(frame, done)[1]


def screen(u: BraidWord, v: BraidWord, g, h) -> Distinct | None:
    """The first invariant that separates u and v, whose Gauss diagrams
    are g and h, as a ``Distinct``, or None: theta, singularity_count,
    degree, pair_invariants, then the ``rep.burau`` matrix at t = 3, u = 5,
    reported by its first differing entry as (row, col, value) on each
    side.  Theta is read from the diagrams, which hold the strand
    permutation.  The matrices are built on the strands the words touch
    only; both are the identity off them."""
    from .gauss import pair_invariants
    from .rep import burau

    if g.perm != h.perm:
        return Distinct("theta", g.perm, h.perm)
    for name, fn in (("singularity_count", singularity_count), ("degree", degree)):
        a, b = fn(u), fn(v)
        if a != b:
            return Distinct(name, a, b)
    pu, pv = pair_invariants(g), pair_invariants(h)
    if pu != pv:
        return Distinct("pair_invariants", pu, pv)
    k = _touched_strands(u.letters, v.letters)
    mu, mv = burau(BraidWord(k, u.letters)), burau(BraidWord(k, v.letters))
    for r, c in product(range(k), repeat=2):
        if mu[r][c] != mv[r][c]:
            return Distinct("burau", (r + 1, c + 1, mu[r][c]), (r + 1, c + 1, mv[r][c]))
    return None


def equivalent(u: BraidWord, v: BraidWord, budget: Budget = Budget()) -> Verdict:
    """Three-valued word problem.

    Both words are freely reduced (those deletions are themselves relation
    applications, so they join the trace, and they keep every invariant of
    ``screen``), and each reduced word's Gauss diagram is built once.
    Distinct needs a separating invariant found by ``screen``.  Then one
    path for each kind of pair: equal reduced words need nothing; reduced
    words with equal diagrams are both normalised to the section
    ``braid_of_gauss`` of that diagram (a word that is its own section
    needs no search at all); any other pair goes to the global word
    search.  Unknown is the verdict of the search that failed, as it is.
    Every Equivalent trace is replayed from u to v before it is returned.
    """
    if u.n != v.n:
        raise ValueError("strand counts differ")

    from .gauss import braid_of_gauss, gauss_of_braid

    ur, trace_u = free_reduce_trace(u)
    vr, trace_v = free_reduce_trace(v)
    g, h = gauss_of_braid(ur), gauss_of_braid(vr)
    distinct = screen(ur, vr, g, h)
    if distinct is not None:
        return distinct

    if ur.letters == vr.letters:
        middle = ()
    elif g == h:
        section = braid_of_gauss(g).letters
        middle = _diagram_normal_trace(ur, section, budget)
        if not isinstance(middle, Unknown):
            tv = _diagram_normal_trace(vr, section, budget)
            middle = tv if isinstance(tv, Unknown) else \
                middle + tuple(invert_step(s) for s in reversed(tv))
    else:
        middle = _word_search(ur.letters, vr.letters, u.n, budget.nodes)
    if isinstance(middle, Unknown):
        return middle
    trace = trace_u + middle + tuple(invert_step(s) for s in reversed(trace_v))
    if replay_trace(u, trace).letters != v.letters:
        raise AssertionError("equivalent produced a trace that does not replay")
    return Equivalent(trace)
