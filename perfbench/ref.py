"""Reference computations the benchmark checks the library against.

Written from the definitions, sharing no code with ``svbraid``, so that a
wrong library result cannot also pass its own check.  A letter is a pair
``(kind, index)`` with kind 0 positive, 1 negative, 2 virtual, 3 singular
crossing on slots index, index+1; a word is a tuple of letters.  An arrow is
``(tail, head, kind)`` with kind 0 positive, 1 negative, 2 singular.
"""

from __future__ import annotations

POS, NEG, VIRT, SING = range(4)
_CHAR = {POS: "s", NEG: "s", VIRT: "r", SING: "t"}
_ARROW_KIND = {POS: 0, NEG: 1, SING: 2}


def text(word) -> str:
    """Token form: ``s1 s2' r1 t2``, or ``e`` for the empty word."""
    if not word:
        return "e"
    return " ".join(f"{_CHAR[k]}{i}{chr(39) if k == NEG else ''}" for k, i in word)


def letters_of(text_form: str):
    if text_form == "e":
        return ()
    out = []
    for tok in text_form.split(" "):
        kind = {"s": POS, "r": VIRT, "t": SING}[tok[0]]
        if tok.endswith("'"):
            kind, tok = NEG, tok[:-1]
        out.append((kind, int(tok[1:])))
    return tuple(out)


def catalog(n: int) -> dict:
    """Every defining relation instance at n strands, both directions:
    ``(before, after) -> family``."""
    idx = range(1, n)
    s = lambda i: (POS, i)  # noqa: E731
    sn = lambda i: (NEG, i)  # noqa: E731
    r = lambda i: (VIRT, i)  # noqa: E731
    t = lambda i: (SING, i)  # noqa: E731
    rel = []
    far = [(i, j) for i in idx for j in idx if abs(i - j) >= 2]
    for i, j in far:
        rel.append(("V2", (s(i), r(j)), (r(j), s(i))))
        rel.append(("S2", (t(i), s(j)), (s(j), t(i))))
        rel.append(("SV1", (r(i), t(j)), (t(j), r(i))))
        if i < j:
            rel.append(("R0", (s(i), s(j)), (s(j), s(i))))
            rel.append(("V1", (r(i), r(j)), (r(j), r(i))))
            rel.append(("S1", (t(i), t(j)), (t(j), t(i))))
    for i in idx:
        rel.append(("R2", (s(i), sn(i)), ()))
        rel.append(("R2", (sn(i), s(i)), ()))
        rel.append(("V3", (r(i), r(i)), ()))
        rel.append(("S3", (t(i), s(i)), (s(i), t(i))))
        if i + 1 < n:
            j = i + 1
            rel.append(("R3", (s(i), s(j), s(i)), (s(j), s(i), s(j))))
            rel.append(("V4", (r(i), r(j), r(i)), (r(j), r(i), r(j))))
            rel.append(("V5", (r(i), s(j), r(i)), (r(j), s(i), r(j))))
            rel.append(("S4", (s(i), s(j), t(i)), (t(j), s(i), s(j))))
            rel.append(("SV2", (r(i), t(j), r(i)), (r(j), t(i), r(j))))
    out = {}
    for family, lhs, rhs in rel:
        out[(lhs, rhs)] = family
        out[(rhs, lhs)] = family
    return out


def apply_step(word, position: int, before, after):
    """Replace ``before`` by ``after`` at ``position``; None if it does not match."""
    if position < 0 or word[position:position + len(before)] != before:
        return None
    return word[:position] + after + word[position + len(before):]


def free_reduce(word):
    stack = []
    for k, i in word:
        if stack and stack[-1][1] == i and {stack[-1][0], k} in ({POS, NEG}, {VIRT}):
            stack.pop()
        else:
            stack.append((k, i))
    return tuple(stack)


def _slots(n: int, word):
    """Strand in each slot after the word, and the arrows it draws."""
    pos = list(range(1, n + 1))
    arrows = []
    for k, i in word:
        a, b = pos[i - 1], pos[i]
        if k == NEG:
            arrows.append((b, a, _ARROW_KIND[k]))
        elif k != VIRT:
            arrows.append((a, b, _ARROW_KIND[k]))
        pos[i - 1], pos[i] = b, a
    return pos, tuple(arrows)


def perm_of_slots(pos) -> tuple:
    out = [0] * len(pos)
    for slot, strand in enumerate(pos):
        out[strand - 1] = slot + 1
    return tuple(out)


def gauss(n: int, word):
    """Horizontal Gauss diagram: (arrows in time order, strand permutation)."""
    pos, arrows = _slots(n, word)
    return arrows, perm_of_slots(pos)


def theta(n: int, word) -> tuple:
    return gauss(n, word)[1]


def degree(word) -> int:
    return sum(1 if k == POS else -1 if k == NEG else 0 for k, _ in word)


def singularities(word) -> int:
    return sum(1 for k, _ in word if k == SING)


def pair_invariants(arrows) -> dict:
    """Per strand pair (low, high): (signed classical count, singular count)."""
    out: dict = {}
    for tail, head, kind in arrows:
        key = (min(tail, head), max(tail, head))
        w, s = out.get(key, (0, 0))
        out[key] = (w, s + 1) if kind == 2 else (w + (1 if kind == 0 else -1), s)
    return {k: v for k, v in sorted(out.items()) if v != (0, 0)}


def word_of_gauss(n: int, arrows, perm):
    """A word with the given diagram: bring the two strands of each arrow
    next to each other with virtual letters, cross them, and end with
    virtual letters that realise the permutation."""
    pos = list(range(1, n + 1))
    out = []

    def swap(i):
        out.append((VIRT, i))
        pos[i - 1], pos[i] = pos[i], pos[i - 1]

    for tail, head, kind in arrows:
        upper, lower = (head, tail) if kind == 1 else (tail, head)
        while pos.index(lower) > pos.index(upper) + 1:
            swap(pos.index(lower))
        while pos.index(lower) < pos.index(upper):
            swap(pos.index(upper))
        i = pos.index(upper) + 1
        out.append(({0: POS, 1: NEG, 2: SING}[kind], i))
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    target = [0] * n
    for strand, slot in enumerate(perm, start=1):
        target[slot - 1] = strand
    for slot in range(n):
        while pos[slot] != target[slot]:
            swap(pos.index(target[slot]))
    return tuple(out)
