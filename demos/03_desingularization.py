"""Resolving singular crossings into signed formal sums.

Run with: python3 demos/03_desingularization.py
"""

import math
import random

from svbraid import (
    degree, degree_spectrum, eta_hat, free_reduce, parse_word, print_word,
    scalar_preimage_check, singularity_count,
)
from svbraid.suites import random_word

w = parse_word("r1 s2' t1 r2 s2 t2", 3)
print(f"word  {print_word(w)}  with {singularity_count(w)} singular letters")
print()
print("each singular letter resolves to a positive minus a negative crossing:")
fs = eta_hat(w)
for term, coeff in fs.terms():
    print(f"  {coeff:+d}  {print_word(term)}")
print()
spectrum = degree_spectrum(fs)
print(f"degree spectrum  {spectrum}")
assert spectrum == {-2: 1, 0: 2, 2: 1}
print()

# the spectrum of any word is binomial around its crossing degree
rng = random.Random(0)
for _ in range(200):
    v = random_word(rng, rng.randint(2, 5), 10)
    d = singularity_count(v)
    s = degree(v)
    assert degree_spectrum(eta_hat(v)) == {
        s + d - 2 * k: math.comb(d, k) for k in range(d + 1)}
print("200 random words: spectrum is binomial, extremes at degree +-d around")
print("the crossing degree, so any word with a singular letter spreads out")
print()

# consequence: a word maps to a scalar multiple of the empty word only if
# it is singularity-free and equal to e; the test is the word problem
# against e, so it also settles words free reduction leaves alone
for text, n in (("e", 2), ("s1 s1'", 2), ("r1 r1", 2), ("t1", 2), ("r1", 2),
                ("s1 s1", 2), ("s1 s2 s1 s2' s1' s2'", 3)):
    v = parse_word(text, n)
    verdict = type(scalar_preimage_check(v)).__name__
    reduced = print_word(free_reduce(v))
    print(f"  {text:20s} reduces to {reduced:20s} scalar preimage: {verdict}")
print("done")
