#!/usr/bin/env python3
# From a generator spectrum to an exact derivative rule.
#
# The cost measured after a rotation-like gate exp(i*H*x) is a trigonometric
# polynomial whose frequencies are the positive eigenvalue gaps of H.  Given
# those frequencies, a derivative of any order is an exact finite linear
# combination of cost evaluations at shifted arguments; the coefficients come
# from a small interpolation solve and the shifts are ours to choose.

import numpy as np

from shiftrules import epsr, spectra
from shiftrules.trigpoly import random_trigpoly

print("=" * 70)
print("1. Frequencies from eigenvalue gaps")
print("=" * 70)

# A single Pauli word has eigenvalues -1 and +1: one frequency, {2}.
fs = spectra.positive_difference_frequencies([-1, 1])
print("eigenvalues {-1, 1}  ->", fs.frequencies)

# Three equally spaced levels give {1, 2}.
fs = spectra.positive_difference_frequencies([-1, 0, 1])
print("eigenvalues {-1, 0, 1} ->", fs.frequencies)

# An equidistant set {Omega, ..., r Omega} is the canonical integer set
# {1, ..., r} in the variable Omega * x.
half = spectra.FrequencySet((0.5, 1.0, 1.5))
step = spectra.detect_equidistant(half)
print(f"{half.frequencies} has step {step}: the integers {spectra.integer_frequencies(half.r).frequencies} "
      f"in {step} * x")

print()
print("=" * 70)
print("2. Solving a rule and differentiating exactly")
print("=" * 70)

fs = spectra.integer_frequencies(2)
poly = random_trigpoly(fs, seed=7)

# The classical nodes pi/4, 3pi/4 for a first derivative:
nodes = epsr.equidistant_nodes(2, "odd")
rule = epsr.make_rule(nodes, fs, d=1)
print("nodes:       ", np.round(rule.nodes.values, 6))
print("coefficients:", np.round(rule.solve_coeffs, 6))

for x in (0.0, 0.9):
    got = epsr.apply_rule(rule, poly, x)
    want = poly.derivative(1, x)
    print(f"f'({x}) = {got:+.12f}   exact {want:+.12f}   error {abs(got-want):.1e}")

# Any nonsingular node set gives the same derivative -- shifts are free.
other = epsr.make_rule(epsr.ShiftNodes("odd", (0.4, 1.9)), fs, d=1)
print("different nodes, same derivative:",
      abs(epsr.apply_rule(other, poly, 0.9) - poly.derivative(1, 0.9)))

print()
print("=" * 70)
print("3. Higher orders reuse the same evaluations")
print("=" * 70)

r1 = epsr.make_rule(nodes, fs, d=1)
r3 = epsr.make_rule(nodes, fs, d=3)
print("d=1 shifts:", np.round(r1.expanded_shifts, 4))
print("d=3 shifts:", np.round(r3.expanded_shifts, 4), "(identical)")
print("d=3 value:", epsr.apply_rule(r3, poly, 0.3), " exact:", poly.derivative(3, 0.3))

even = epsr.make_rule(epsr.equidistant_nodes(2, "even"), fs, d=2)
print("even rule evaluation count (0 and pi merged):", epsr.evaluation_count(even))

print()
print("=" * 70)
print("4. Node validity has a closed-form certificate for integer frequencies")
print("=" * 70)

good = epsr.ShiftNodes("odd", (0.4, 1.2))
bad = epsr.ShiftNodes("odd", (0.4, 2 * np.pi - 0.4))  # cosines coincide
for tag, n in (("valid", good), ("congruent pair", bad)):
    det = epsr.determinant_closed_form(n, fs)
    print(f"{tag:>16}: closed-form determinant = {det:+.3e}")

print()
print("rule as JSON (machine interchange):")
print(epsr.rule_to_json(r1)[:260], "...")
