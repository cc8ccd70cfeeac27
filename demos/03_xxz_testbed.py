#!/usr/bin/env python3
# End-to-end run on the spin-chain testbed.
#
# A 5-qubit XXZ chain with a depth-2 Hamiltonian-variational circuit supplies
# hardware-model cost slices.  Each parameter's slice is an exact
# trigonometric polynomial: the theta/beta slices carry frequencies {1,2},
# the phi slices {1,2,3,4}, and the final gamma slice only {1,2,4} -- its
# frequency-3 content cancels structurally.  Shift rules differentiate these
# slices exactly, and under shot noise the weighted allocation at the
# classical nodes gives visibly tighter estimates.

import numpy as np

from shiftrules import epsr, qsim
from shiftrules.experiments import random_base_params, sampled_estimates, valid_nodes_for

q, p, delta = 5, 2, 0.5
circuit = qsim.build_hva_circuit(q, p)
observable = qsim.build_xxz_hamiltonian(q, delta)
theta = random_base_params(q, p, seed=0)
names = qsim.hva_parameter_names(p)

print("=" * 70)
print("1. The model")
print("=" * 70)
print(f"{q}-qubit XXZ chain (delta={delta}), {len(observable.terms)} Pauli terms")
print(f"ansatz: {len(circuit.gates)} gates, {circuit.n_params} parameters: {names}")
print("energy at the base point:", qsim.cost_slice(circuit, observable, theta, 0)(theta[0]))

print()
print("=" * 70)
print("2. Frequency content of each parameter's cost slice")
print("=" * 70)
for j in range(circuit.n_params):
    superset = qsim.slice_frequencies(circuit, j)
    effective = qsim.slice_frequencies(circuit, j, observable, theta)
    note = "  <- frequency 3 cancels" if effective.r < superset.r else ""
    print(f"{names[j]:>7}: gate-count superset {superset.frequencies} "
          f"-> effective {effective.frequencies}{note}")

print()
print("=" * 70)
print("3. Shift rules vs the exact derivative from the slice's component Grams")
print("=" * 70)
for j in (0, 1, 7):
    sl = qsim.cost_slice(circuit, observable, theta, j)
    fs = qsim.slice_frequencies(circuit, j, observable, theta)
    for d in (1, 2):
        rule = epsr.make_rule(valid_nodes_for(fs, d, seed=j), fs, d)
        got = epsr.apply_rule(rule, sl, theta[j])
        exact = sl.derivative(d, theta[j])
        print(f"{names[j]:>7} d={d}: rule {got:+.12f}  exact {exact:+.12f}  "
              f"|diff| {abs(got-exact):.1e}")

print()
print("=" * 70)
print("4. Shot noise: uniform vs weighted allocation (1000 shots, 500 runs)")
print("=" * 70)
for j in (0, 1):
    sl = qsim.cost_slice(circuit, observable, theta, j)
    fs = qsim.slice_frequencies(circuit, j, observable, theta)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    ests = sampled_estimates(sl, rule, theta[j], ("uniform", "weighted"),
                             n_total=1000, repetitions=500, seed_key=[0, j])
    vu = np.var(ests["uniform"], ddof=1)
    vw = np.var(ests["weighted"], ddof=1)
    r = fs.r
    print(f"{names[j]:>7} (r={r}): sample variances {vu:.4f} / {vw:.4f}  "
          f"ratio {vu/vw:.2f}  (predicted {(2*r*r+1)/(3*r):.2f})")

print()
print("=" * 70)
print("5. Node choice matters: classical vs arbitrary nodes, weighted shots")
print("=" * 70)
j = 1
sl = qsim.cost_slice(circuit, observable, theta, j)
fs = qsim.slice_frequencies(circuit, j, observable, theta)
for tag, vals in (("equidistant", epsr.equidistant_nodes(4, "odd").values),
                  ("random", (1.096948636022, 1.352471555537, 1.643004064611, 2.704730076756))):
    rule = epsr.make_rule(epsr.ShiftNodes("odd", vals), fs, 1)
    ests = sampled_estimates(sl, rule, theta[j], ("weighted",),
                             n_total=1000, repetitions=500, seed_key=[1, j])
    print(f"{tag:>12}: sample variance {np.var(ests['weighted'], ddof=1):.4f}")
