#!/usr/bin/env python3
# Choosing shifts that minimize the derivative variance.
#
# With a finite shot budget every cost evaluation is noisy, and the noise the
# rule passes through depends on the coefficient vector b(x).  Uniform shot
# allocation prices a node set at r*||b||_2^2; splitting shots proportionally
# to the coefficients is provably optimal and prices it at ||b||_1^2.  The
# weighted objective is globally minimized by the classical equidistant
# nodes, the uniform one is not -- both facts are reproduced below, and the
# weighted search certifies its result against a dual lower bound.

import numpy as np

from shiftrules import epsr, variance
from shiftrules.spectra import FrequencySet, integer_frequencies

print("=" * 70)
print("1. Predicted variances at the classical nodes")
print("=" * 70)

for r in (2, 4):
    fs = integer_frequencies(r)
    b, _ = epsr.solve_coefficients(epsr.equidistant_nodes(r, "odd"), fs, 1)
    unif = variance.predicted_variance(b, "odd", "uniform").predicted_scaled_variance
    wgt = variance.predicted_variance(b, "odd", "weighted").predicted_scaled_variance
    print(f"r={r}: uniform {unif:6.2f}   weighted {wgt:6.2f}   "
          f"ratio {unif/wgt:.2f} = (2r^2+1)/(3r)")

print()
print("=" * 70)
print("2. The optimal shot split")
print("=" * 70)

rule = epsr.make_rule(epsr.equidistant_nodes(2, "odd"), integer_frequencies(2), 1)
alloc = variance.allocate("weighted", rule.expanded_coeffs, 1000, rule.expanded_shifts)
print("shifts:      ", np.round(rule.expanded_shifts, 4))
print("fractions:   ", np.round(np.asarray(alloc.counts) / 1000, 4))
print("integerized: ", variance.integer_shot_counts(alloc))

# any other split is worse (Cauchy-Schwarz):
rng = np.random.default_rng(0)
gamma = np.asarray(rule.expanded_coeffs)
best = np.sum(np.abs(gamma)) ** 2 / 1000
worst_seen = max(
    variance.allocation_variance(gamma, 1000 * rng.dirichlet(np.ones(gamma.size)))
    for _ in range(200)
)
print(f"optimal variance {best:.5f}; worst random split seen {worst_seen:.3f}")

print()
print("=" * 70)
print("3. Local descent on the variance objectives")
print("=" * 70)

# each iteration tries a Newton step first (Hessian by central differences
# of the analytic gradient, eigenvalues taken in magnitude) and falls back
# to a (sub)gradient step only when no rung of its halving ladder helps

fs = integer_frequencies(2)
start = epsr.ShiftNodes("odd", (0.5, 1.4))
res = variance.optimize_shifts_local(fs, 1, "weighted", start)
print("weighted descent from", start.values)
print("  -> nodes", np.round(res.nodes.values, 6), " objective", round(res.objective, 9),
      " (optimum: [pi/4, 3pi/4], value 2)")

res_u = variance.optimize_shifts_local(integer_frequencies(1), 1, "uniform",
                                       epsr.ShiftNodes("odd", (1.0,)))
print("uniform descent, single frequency -> node", res_u.nodes.values[0],
      f"(stationary at pi/2) after {res_u.iterations} iterations")

# at the classical nodes the uniform objective still has descent directions:
g = variance.grad_F_unif(epsr.equidistant_nodes(4, "odd"), integer_frequencies(4), 1)
print("uniform gradient norm at equidistant nodes (r=4):", np.linalg.norm(g).round(6),
      "-> not optimal under uniform shots")

print()
print("=" * 70)
print("4. Global search agrees with the theory")
print("=" * 70)

# F_wgt >= Omega_max^d at every node set (weak duality), so differential
# evolution stops once its best member is within a relative gap of 1e-6 of
# that bound; a local polish then closes the gap
res = variance.optimize_shifts_global(fs, 1, "weighted", seed=3)
print("DE result:", np.round(res.nodes.values, 6), " objective", round(res.objective, 6),
      " certificate:", res.certificate, f" after {res.iterations} generations")
print("certified optimal for r=3, d=1:", variance.certify_equidistant_optimality(3, 1))

# non-consecutive integer frequencies have no classical reference; the search
# still attains the dual lower bound Omega_max^d
fs124 = FrequencySet((1.0, 2.0, 4.0))
res = variance.optimize_shifts_global(fs124, 1, "weighted", generations=600, seed=7)
bound = variance.weighted_lower_bound(fs124, 1)
print(f"frequencies {fs124.frequencies}: optimized objective {res.objective:.6f} "
      f"(lower bound {bound:g}, gap {(res.objective - bound) / bound:.1e}) "
      f"at nodes {np.round(res.nodes.values, 6)}")

print()
print("=" * 70)
print("5. Landscape scan")
print("=" * 70)

grid, values = variance.scan_landscape(fs, 1, "weighted", n=21)
i, j = np.unravel_index(np.argmin(values), values.shape)
print(f"F_wgt on a 21x21 interior grid: {np.isinf(values).sum()} singular points (x1 == x2), "
      f"minimum {values[i, j]:.6f} at (x1, x2) = ({grid[i]:.4f}, {grid[j]:.4f})")
print("the full 61x61 grids for d = 1..6 are `shiftrules experiment --id landscape`")
