"""Words, invariants, and the bounded word problem.

Run with: python3 demos/01_words_and_equivalence.py
"""

from svbraid import (
    Budget, Distinct, Equivalent, Unknown, degree, equivalent, parse_word,
    print_word, relation_catalog, replay_trace, singularity_count, theta,
)

n = 3
w = parse_word("r1 s2' t1 r2 s2 t2", n)
print(f"word            {print_word(w)}")
print(f"strands         {n}")
print(f"permutation     {theta(w)}   (strand -> final position)")
print(f"degree          {degree(w)}   (crossing signs summed)")
print(f"singularities   {singularity_count(w)}")
print()

print("defining relation instances on two strands:")
for inst in relation_catalog(2):
    print(f"  {inst.family:4s} {print_word(inst.lhs)}  ==  {print_word(inst.rhs)}")
print()

u = parse_word("t1 s1", 2)
v = parse_word("s1 t1", 2)
verdict = equivalent(u, v)
assert isinstance(verdict, Equivalent)
print(f"{print_word(u)}  ~  {print_word(v)}: certified by {len(verdict.trace)} move(s)")
for step in verdict.trace:
    print(f"  apply {step.label} at position {step.position}")
assert replay_trace(u, verdict.trace) == v
print("  trace replays exactly")
print()

verdict = equivalent(parse_word("s1", 2), parse_word("s1'", 2))
assert isinstance(verdict, Distinct)
print(f"s1 vs s1': distinct, separated by {verdict.invariant} "
      f"({verdict.left} vs {verdict.right})")
print()

# same cheap invariants on both sides, yet the diagrams differ; the
# virtual Burau matrix tells them apart without a search
u = parse_word("s1 t2", 3)
v = parse_word("r1 s1 r1 t2", 3)
verdict = equivalent(u, v, Budget(nodes=5000))
assert isinstance(verdict, Distinct) and verdict.invariant == "burau"
print(f"{print_word(u)} vs {print_word(v)}: distinct, burau matrices differ "
      f"at (row, col) {verdict.left[:2]}")
print()

# equivalent, but a small node budget cannot certify it
u = parse_word("s2 s2 t2 s1' s2 s2 t2 s1", 4)
v = parse_word("s2 t2 s2 s1' t2 s2 s2 s1", 4)
verdict = equivalent(u, v, Budget(nodes=2000))
assert isinstance(verdict, Unknown)
print(f"{print_word(u)} vs {print_word(v)}: unknown after exploring "
      f"{verdict.nodes_explored} states")
verdict = equivalent(u, v)
assert isinstance(verdict, Equivalent)
print(f"  with the default budget: certified by {len(verdict.trace)} moves")
print()

# a long detour: conjugating a crossing through virtual letters
u = parse_word("r1 r2 s1 r2 r1", 3)
v = parse_word("s2", 3)
verdict = equivalent(u, v)
assert isinstance(verdict, Equivalent)
print(f"{print_word(u)}  ~  {print_word(v)}: {len(verdict.trace)} move(s)")
print()

# virtual letters alone are straightened by construction: V1, V3 and V4
# steps, no search, so even a one-node budget certifies the pair
u = parse_word("r1 r2 r1 r3 r5 r2 r1 r3 r4", 6)
v = parse_word("r3 r2 r1 r3 r2 r5 r4", 6)
verdict = equivalent(u, v, Budget(nodes=1))
assert isinstance(verdict, Equivalent) and replay_trace(u, verdict.trace) == v
print(f"{print_word(u)}  ~  {print_word(v)}: {len(verdict.trace)} moves "
      f"under Budget(nodes=1)")
print("done")
