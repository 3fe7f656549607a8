"""Disjointness constants and the derived lower estimate.

The two-disjoint constant c is the best constant in
N(x) + N(y) <= c * N(x + y) over disjoint pairs.  When c < 2, a lower
p-estimate follows with p = 2*ln2 / ln(2/c), and for every r > p a
series gives an explicit constant K_r for the r-version.  The pipeline
runs the whole chain and reports honestly when the hypothesis fails.
"""

import math

from ukklattice import (
    LatticeVector,
    LqNorm,
    check_inf_chain,
    derived_exponent,
    estimate_two_disjoint_constant,
    lower_r_constant,
    run_estimate_pipeline,
    verify_lower_r_estimate,
)

# In the 2-norm, disjoint unit atoms give (1+1)/sqrt(2) = sqrt(2).
N2 = LqNorm(2, 8)
c, (wx, wy) = estimate_two_disjoint_constant(N2, budget=200, seed=0)
print(f"2-norm: c_hat = {c!r}  (sqrt(2) = {math.sqrt(2)!r})")
print("witness supports:", wx.support(), wy.support())
print("derived exponent p =", derived_exponent(c), "(analytic value 4)")
print()

# K_r table for r above p, from a fixed-size Euler-Maclaurin series.
for r in (4.5, 5.0, 6.0):
    K = lower_r_constant(c, derived_exponent(c), r)
    bad = verify_lower_r_estimate(N2, r, K, trials=2000, seed=1)
    print(f"r = {r}: K_r = {K:.6f}, violations in 2000 sampled families: {bad}")
print()

# A dyadic chain bound on the smallest member of a disjoint family.
fam = [LatticeVector.unit(8, i) * s for i, s in enumerate((1.0, 0.9, 1.1, 0.8))]
chk = check_inf_chain(N2, c, fam)
print(f"family of {chk.m}: min norm {chk.inf_norm:.3f} <= "
      f"dyadic bound {chk.dyadic_bound:.3f}, power-law bound {chk.powerlaw_bound:.3f}")
print()

# The sup norm has c = 2 exactly: disjoint unit atoms lose nothing.
# The pipeline reports hypothesis failure rather than inventing a p.
rep = run_estimate_pipeline(LqNorm(float("inf"), 6), budget=200, seed=0)
print("sup norm: c_hat =", rep.c_hat, " hypothesis satisfied:", rep.hypothesis_satisfied)
print("          p_derived =", rep.p_derived, " (no lower p-estimate is claimed)")
