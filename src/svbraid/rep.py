"""A virtual Burau matrix of singular virtual braid words, computed exactly.

Each letter acts as the identity outside a 2x2 block at slots (i, i+1):

    s<i>    [[1-t, t], [1, 0]]
    s<i>'   [[0, 1], [1/t, 1-1/t]]           the inverse of s<i>
    r<i>    [[0, u], [1/u, 0]]
    t<i>    M(s<i>) - M(s<i>') + I

This is the two-parameter virtual Burau representation (Vershinin, JKTR
2001; Bardakov 2004) composed with the desingularization, which sends a
singular crossing to a combination of the two classical ones.  Any
combination a*M(s) + b*M(s') + c*I satisfies every defining relation;
a + b + c = 1 keeps the image the identity off the block, so a letter
changes only two columns.  As u != 1, forbidden moves such as
r1 s2 s1 / s2 s1 r2 get different matrices.

Entries live in Z/p with p = 2**61 - 1, t = 3 and u = 5.  Evaluating there
is a ring homomorphism Z[t, 1/t, u, 1/u] -> Z/p, so words whose matrices
differ here differ as Laurent matrices and are not equivalent.
"""

from __future__ import annotations

from .words import BraidWord, Kind

P = (1 << 61) - 1
T = 3
U = 5
_T_INV = pow(T, P - 2, P)

# (a, b, c, d): right-multiplying by the block [[a, b], [c, d]] sends
# columns (x, y) to (a*x + c*y, b*x + d*y).
_BLOCKS = {
    Kind.POS: ((1 - T) % P, T, 1, 0),
    Kind.NEG: (0, 1, _T_INV, (1 - _T_INV) % P),
    Kind.VIRT: (0, U, pow(U, P - 2, P), 0),
    Kind.SING: ((2 - T) % P, (T - 1) % P, (1 - _T_INV) % P, _T_INV),
}


def burau(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """The matrix of w modulo P, row by row: the product of its letters'
    matrices in word order.  Costs O(len(w) * n)."""
    n = w.n
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for kind, index in w.letters:
        i = index - 1
        x, y = cols[i], cols[i + 1]
        a, b, c, d = _BLOCKS[kind]
        cols[i] = [(a * xr + c * yr) % P for xr, yr in zip(x, y)]
        cols[i + 1] = [(b * xr + d * yr) % P for xr, yr in zip(x, y)]
    return tuple(zip(*cols))

