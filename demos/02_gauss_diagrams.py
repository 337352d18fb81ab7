"""Horizontal Gauss diagrams and diagram-level moves.

Run with: python3 demos/02_gauss_diagrams.py
"""

from svbraid import (
    Equivalent, GaussWord, braid_of_gauss, canonical_form,
    gauss_of_braid, omega_equivalent, pair_invariants, parse_word, print_word,
    relation_catalog, replay_omega_trace,
)

w = parse_word("s1 t2 s1'", 3)
g = gauss_of_braid(w)
print(f"word     {print_word(w)}")
print(f"diagram  n={g.n}, perm={g.perm}")
for a in g.arrows:
    print(f"  arrow {a.tail} -> {a.head}  {a.kind.name}")
print(f"pair invariants (writhe, singular count) per strand pair:")
for pair, val in pair_invariants(g).items():
    print(f"  {pair}: {val}")
print()

# the section of gauss_of_braid: realize a diagram, read it back
back = braid_of_gauss(g)
print(f"realized braid  {print_word(back)}")
assert gauss_of_braid(back) == g
print("reading the diagram back is the exact identity")
print()

# virtual letters are invisible to the diagram, so the realization can
# spell the same diagram differently
w = parse_word("r2 r1 s1", 3)
back = braid_of_gauss(gauss_of_braid(w))
print(f"{print_word(w)} realizes as {print_word(back)} (same diagram)")
print()

# omega moves certify relation instances diagrammatically
total = 0
for m in (2, 3, 4):
    for inst in relation_catalog(m):
        gl, gr = gauss_of_braid(inst.lhs), gauss_of_braid(inst.rhs)
        verdict = omega_equivalent(gl, gr)
        assert isinstance(verdict, Equivalent), inst.family
        assert len(verdict.trace) <= 6, inst.family
        assert replay_omega_trace(gl, verdict.trace) == gr
        total += 1
print(f"all {total} relation instances certified in at most 6 moves")
print()

# canonical form sorts arrows whose supports are disjoint
g = gauss_of_braid(parse_word("s3 s1", 4))
c = canonical_form(g)
print(f"arrows before {[(a.tail, a.head) for a in g.arrows]}")
print(f"arrows after  {[(a.tail, a.head) for a in c.arrows]}")
assert c == canonical_form(c)
print()

# an opposite-sign pair on the same strands cancels by one move
g = gauss_of_braid(parse_word("s1 s1'", 2))
verdict = omega_equivalent(g, GaussWord(2))
assert isinstance(verdict, Equivalent) and len(verdict.trace) == 1
print("s1 s1' cancels to the empty diagram in one move")
print("done")
