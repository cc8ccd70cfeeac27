"""Acceptance suite: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Runtime-bounded criteria assert their own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from shiftrules import epsr, qsim, variance
from shiftrules.epsr import ShiftNodes, SingularNodesError
from shiftrules.experiments import (
    RESULT3_RANDOM_NODES,
    random_base_params,
    sampled_estimates,
    valid_nodes_for,
    xxz_hva_setup,
)
from shiftrules.spectra import FrequencySet, integer_frequencies
from shiftrules.trigpoly import central_difference, fit_least_squares, random_trigpoly

FREQ_SETS = (
    (1.0,),
    (1.0, 2.0),
    (1.0, 2.0, 3.0, 4.0),
    (1.0, 2.0, 4.0),
    (0.7, 1.9, 3.2),
)


def _pass(num: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num}: PASS - {message}")


def _random_valid_nodes(fs, d, rng):
    parity = "odd" if d % 2 else "even"
    n = fs.r if parity == "odd" else fs.r + 1
    while True:
        vals = np.sort(rng.uniform(0.08, math.pi - 0.08, n))
        if parity == "even":
            vals[0] = 0.0
        nodes = ShiftNodes(parity, tuple(vals))
        try:
            epsr.solve_coefficients(nodes, fs, d)
            return nodes
        except SingularNodesError:
            continue


@pytest.fixture(scope="module")
def xxz():
    circuit, obs = xxz_hva_setup(5, 2, 0.5)
    theta = random_base_params(5, 2, 0)
    return circuit, obs, theta


def test_criterion_1_epsr_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    instances = 0
    worst = 0.0
    while instances < 200:
        fs = FrequencySet(FREQ_SETS[instances % len(FREQ_SETS)])
        poly = random_trigpoly(fs, rng.integers(1 << 30))
        for d in range(1, 7):
            rule = epsr.make_rule(_random_valid_nodes(fs, d, rng), fs, d)
            for xbar in (0.0, 0.3, -1.1):
                want = poly.derivative(d, xbar)
                got = epsr.apply_rule(rule, poly, xbar)
                err = abs(got - want) / (1 + abs(want))
                worst = max(worst, err)
                assert err <= 1e-8, (fs.frequencies, d, xbar, got, want)
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _pass(1, f"200 instances x d=1..6 x 3 points, worst scaled error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_result1_reproduction(xxz):
    start = time.monotonic()
    circuit, obs, theta = xxz
    worst = 0.0
    for j in range(8):
        sl = qsim.cost_slice(circuit, obs, theta, j)
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        for d in (1, 2):
            rule = epsr.make_rule(valid_nodes_for(fs, d, seed=17 + j), fs, d)
            got = epsr.apply_rule(rule, sl, theta[j])
            ref = central_difference(sl, theta[j], d, 1e-2)
            worst = max(worst, abs(got - ref))
            assert abs(got - ref) < 1e-9, (j, d)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _pass(2, f"8 parameters x d in {{1,2}}, worst |rule - reference| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_closed_form_equivalence():
    worst_coeff = 0.0
    worst_gram = 0.0
    for r in range(1, 9):
        fs = integer_frequencies(r)
        for d in (1, 2):
            parity = "odd" if d % 2 else "even"
            rule = epsr.make_rule(epsr.equidistant_nodes(r, parity), fs, d)
            c, x = epsr.equidistant_coefficients_closed_form(r, d)

            def as_map(shifts, coeffs):
                out = {}
                for s, g in zip(shifts, coeffs):
                    key = round(float(np.mod(s, 2 * math.pi)), 9)
                    out[key] = out.get(key, 0.0) + g
                return out

            got = as_map(rule.expanded_shifts, rule.expanded_coeffs)
            want = as_map(x, c)
            assert set(got) == set(want), (r, d)
            for k in want:
                worst_coeff = max(worst_coeff, abs(got[k] - want[k]))
                assert abs(got[k] - want[k]) <= 1e-10, (r, d, k)
        a = epsr.build_A(epsr.equidistant_nodes(r, "odd"), fs, "odd")
        gram = a.T @ a - r * np.diag([0.5] * (r - 1) + [1.0])
        worst_gram = max(worst_gram, float(np.max(np.abs(gram))))
        assert worst_gram <= 1e-10, r
    _pass(3, f"r=1..8: closed-form coefficient dev {worst_coeff:.2e}, Gram identity dev {worst_gram:.2e}")


def test_criterion_4_weighted_optimum_values_and_nonzero_gradient():
    worst_value = 0.0
    for r in range(1, 9):
        fs = integer_frequencies(r)
        for d in range(1, 9):
            parity = "odd" if d % 2 else "even"
            value = variance.F_wgt(epsr.equidistant_nodes(r, parity), fs, d)
            rel = abs(value - float(r) ** d) / float(r) ** d
            worst_value = max(worst_value, rel)
            assert rel <= 1e-9, (r, d, value)
    for r in range(2, 9):
        fs = integer_frequencies(r)
        nodes = epsr.equidistant_nodes(r, "odd")
        f = variance.F_unif(nodes, fs, 1)
        assert abs(f - (2 * r * r + 1) / 6) <= 1e-10 * max(1.0, f), r
        g = variance.grad_F_unif(nodes, fs, 1)
        assert np.linalg.norm(g) > 1e-3, r
    _pass(4, f"||b||_1 = r^d for (r,d) in 1..8 x 1..8 (worst rel dev {worst_value:.2e}); "
             "uniform objective (2r^2+1)/6 with nonzero gradient for r=2..8")


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(55)
    pools = [integer_frequencies(r) for r in (1, 2, 3, 4, 5)]
    pools += [FrequencySet((1.0, 2.0, 4.0)), FrequencySet((0.7, 1.9, 3.2))]

    def fd_grad(fn, nodes, h=1e-6):
        vals = np.asarray(nodes.values)
        out = np.zeros_like(vals)
        for i in range(vals.size):
            up, dn = vals.copy(), vals.copy()
            up[i] += h
            dn[i] -= h
            out[i] = (fn(ShiftNodes(nodes.parity, tuple(up)))
                      - fn(ShiftNodes(nodes.parity, tuple(dn)))) / (2 * h)
        return out

    for parity, orders in (("odd", (1, 3, 5)), ("even", (2, 4, 6))):
        checked = 0
        worst = 0.0
        while checked < 100:
            fs = pools[int(rng.integers(len(pools)))]
            d = int(rng.choice(orders))
            nodes = _random_valid_nodes(fs, d, rng)
            if parity == "even" and nodes.parity != "even":
                continue
            if nodes.parity != parity:
                continue
            b, _ = epsr.solve_coefficients(nodes, fs, d)
            got_u = variance.grad_F_unif(nodes, fs, d)
            ref_u = fd_grad(lambda n: variance.F_unif(n, fs, d), nodes)
            dev_u = np.max(np.abs(got_u - ref_u)) / max(1.0, float(np.max(np.abs(ref_u))))
            assert dev_u < 1e-5, (fs.frequencies, d)
            worst = max(worst, dev_u)
            if np.min(np.abs(b)) > 1e-2:  # away from the l1 kinks
                got_w = variance.subgrad_F_wgt(nodes, fs, d)
                ref_w = fd_grad(lambda n: variance.F_wgt(n, fs, d), nodes)
                dev_w = np.max(np.abs(got_w - ref_w)) / max(1.0, float(np.max(np.abs(ref_w))))
                assert dev_w < 1e-5, (fs.frequencies, d)
                worst = max(worst, dev_w)
            checked += 1
    _pass(5, f"100 cases per parity, worst scaled gradient deviation {worst:.2e}")


def test_criterion_6_determinant_formulas():
    rng = np.random.default_rng(66)
    worst = 0.0
    for parity in ("odd", "even"):
        for _ in range(100):
            r = int(rng.integers(1, 7))
            fs = integer_frequencies(r)
            n = r if parity == "odd" else r + 1
            nodes = ShiftNodes(parity, tuple(rng.uniform(0.05, math.pi - 0.05, n)))
            a = epsr.build_A(nodes, fs, parity)
            closed = epsr.determinant_closed_form(nodes, fs)
            numeric = float(np.linalg.det(a))
            dev = abs(closed - numeric) / max(abs(numeric), 1e-12)
            worst = max(worst, dev)
            assert dev <= 1e-9 or abs(closed - numeric) < 1e-12, (parity, nodes.values)
    fs = integer_frequencies(3)
    assert epsr.determinant_closed_form(ShiftNodes("odd", (0.0, 0.7, 1.9)), fs) == 0.0
    assert epsr.determinant_closed_form(ShiftNodes("odd", (0.7, 0.7, 1.9)), fs) == 0.0
    assert abs(epsr.determinant_closed_form(ShiftNodes("odd", (0.7, 2 * math.pi - 0.7, 1.9)), fs)) < 1e-13
    assert epsr.determinant_closed_form(ShiftNodes("even", (0.0, 1.1, 1.1, 2.0)), fs) == 0.0
    _pass(6, f"100 random node sets per parity, worst relative deviation {worst:.2e}; "
             "violations vanish")


def test_criterion_7_differential_evolution_sweep():
    start = time.monotonic()
    worst = 0.0
    for r in range(1, 7):
        fs = integer_frequencies(r)
        for d in range(1, 5):
            res = variance.optimize_shifts_global(
                fs, d, "weighted", generations=max(400, 300 * r), seed=[7, r, d])
            worst = max(worst, res.equidistant_error)
            assert res.equidistant_error <= 1e-3, (r, d, res.equidistant_error)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    _pass(7, f"r=1..6 x d=1..4, worst canonical node error {worst:.2e}, {elapsed:.0f}s")


def test_criterion_8_variance_predictions(xxz):
    start = time.monotonic()
    b2, _ = epsr.solve_coefficients(epsr.equidistant_nodes(2, "odd"), integer_frequencies(2), 1)
    b4, _ = epsr.solve_coefficients(epsr.equidistant_nodes(4, "odd"), integer_frequencies(4), 1)
    for b, unif, wgt in ((b2, 6.0, 4.0), (b4, 44.0, 16.0)):
        got_u = variance.predicted_variance(b, "odd", "uniform").predicted_scaled_variance
        got_w = variance.predicted_variance(b, "odd", "weighted").predicted_scaled_variance
        assert abs(got_u - unif) <= 1e-9 * unif
        assert abs(got_w - wgt) <= 1e-9 * wgt

    circuit, obs, theta = xxz
    ratios = {}
    for j, r in ((0, 2), (1, 4)):
        sl = qsim.cost_slice(circuit, obs, theta, j)
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        assert fs.r == r
        rule = epsr.make_rule(epsr.equidistant_nodes(r, "odd"), fs, 1)
        ests = sampled_estimates(sl, rule, theta[j], ("uniform", "weighted"),
                                 1000, 500, [0, 2, j])
        ratio = float(np.var(ests["uniform"], ddof=1) / np.var(ests["weighted"], ddof=1))
        predicted = (2 * r * r + 1) / (3 * r)
        ratios[r] = (ratio, predicted)
        assert abs(ratio - predicted) <= 0.35 * predicted, (r, ratio, predicted)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"
    _pass(8, "predictions 6/4 and 44/16 exact; sample ratios "
             + ", ".join(f"r={r}: {v[0]:.2f} vs {v[1]:.2f}" for r, v in ratios.items())
             + f", {elapsed:.0f}s")


def test_criterion_9_equidistant_beats_random_nodes(xxz):
    circuit, obs, theta = xxz
    margins = []
    for j, r in ((0, 2), (1, 4)):
        sl = qsim.cost_slice(circuit, obs, theta, j)
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        variances = {}
        node_sets = {"equidistant": epsr.equidistant_nodes(r, "odd").values}
        node_sets["random1"], node_sets["random2"] = RESULT3_RANDOM_NODES[r]
        for k, (tag, vals) in enumerate(node_sets.items()):
            rule = epsr.make_rule(ShiftNodes("odd", vals), fs, 1)
            ests = sampled_estimates(sl, rule, theta[j], ("weighted",), 1000, 500, [0, 3, j, k])
            variances[tag] = float(np.var(ests["weighted"], ddof=1))
        for tag in ("random1", "random2"):
            factor = variances[tag] / variances["equidistant"]
            margins.append(factor)
            assert factor >= 2.0, (j, tag, variances)
    _pass(9, "equidistant nodes beat both fixed random sets by factors "
             + ", ".join(f"{m:.1f}x" for m in margins))


def test_criterion_10_optimal_allocation_bound():
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 11))
        gamma = rng.uniform(-1, 1, m)
        if np.all(gamma == 0.0):
            continue
        n_total = float(rng.integers(10, 10000))
        counts = n_total * rng.dirichlet(np.ones(m))
        var_any = variance.allocation_variance(gamma, counts)
        var_opt = float(np.sum(np.abs(gamma)) ** 2 / n_total)
        assert var_any >= var_opt - 1e-12, (gamma, counts)
        checked += 1
    _pass(10, "1000 random allocations never beat the weighted scheme (slack 1e-12)")


def test_criterion_11_slice_frequency_extraction(xxz):
    circuit, obs, theta = xxz
    expected = {
        0: (1.0, 2.0), 2: (1.0, 2.0), 4: (1.0, 2.0), 6: (1.0, 2.0),
        1: (1.0, 2.0, 3.0, 4.0), 3: (1.0, 2.0, 3.0, 4.0), 5: (1.0, 2.0, 3.0, 4.0),
        7: (1.0, 2.0, 4.0),
    }
    smaller = {
        (1.0, 2.0): (1.0,),
        (1.0, 2.0, 3.0, 4.0): (1.0, 2.0, 3.0),
        (1.0, 2.0, 4.0): (1.0, 2.0, 3.0),
    }
    grid = np.linspace(0.0, 2 * math.pi, 96, endpoint=False)
    for j, want in expected.items():
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        assert fs.frequencies == want, (j, fs.frequencies)
        sl = qsim.cost_slice(circuit, obs, theta, j)
        ys = np.array([sl(x) for x in grid])
        _, resid = fit_least_squares(fs, grid, ys)
        assert resid < 1e-9, (j, resid)
        _, resid_small = fit_least_squares(FrequencySet(smaller[want]), grid, ys)
        assert resid_small > 1e-3, (j, resid_small)
    _pass(11, "all 8 parameters: extracted sets confirmed by fit residuals "
              "(< 1e-9) and next-smaller-set failures (> 1e-3)")
