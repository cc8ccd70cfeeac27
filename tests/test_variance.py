import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shiftrules import variance
from shiftrules.epsr import ShiftNodes, SingularNodesError, equidistant_nodes, make_rule, solve_coefficients
from shiftrules.spectra import FrequencySet, integer_frequencies
from shiftrules.variance import (
    F_unif,
    F_wgt,
    ShotAllocation,
    allocate,
    allocation_variance,
    canonical_nodes,
    certify_equidistant_optimality,
    grad_F_unif,
    integer_shot_counts,
    optimize_shifts_global,
    optimize_shifts_local,
    predicted_variance,
    scan_landscape,
    subgrad_F_wgt,
)

FS12 = integer_frequencies(2)
EQUI2 = equidistant_nodes(2, "odd")


def random_valid_nodes(fs, d, rng):
    parity = "odd" if d % 2 else "even"
    n = fs.r if parity == "odd" else fs.r + 1
    while True:
        vals = np.sort(rng.uniform(0.1, math.pi - 0.1, n))
        nodes = ShiftNodes(parity, tuple(vals))
        try:
            solve_coefficients(nodes, fs, d)
            return nodes
        except SingularNodesError:
            continue


# --- objectives -------------------------------------------------------------

@pytest.mark.parametrize("r", range(1, 9))
def test_F_unif_equidistant_value(r):
    got = F_unif(equidistant_nodes(r, "odd"), integer_frequencies(r), 1)
    assert got == pytest.approx((2 * r * r + 1) / 6, rel=1e-12)


def test_F_unif_single_node():
    assert F_unif(ShiftNodes("odd", (math.pi / 2,)), integer_frequencies(1), 1) == pytest.approx(0.5)


def test_F_wgt_equidistant_values():
    assert F_wgt(EQUI2, FS12, 1) == pytest.approx(2.0, rel=1e-12)
    assert F_wgt(equidistant_nodes(2, "even"), FS12, 2) == pytest.approx(4.0, rel=1e-12)


def test_F_wgt_second_order_entries():
    b, _ = solve_coefficients(equidistant_nodes(2, "even"), FS12, 2)
    assert np.allclose(b, [-1.5, 2.0, -0.5], atol=1e-12)
    assert np.sum(np.abs(b)) == pytest.approx(4.0)


# --- stacked objective ------------------------------------------------------

# node values that make interpolation matrices singular or nearly so: 0 and pi
# zero every sine, the box margin sits next to them
_NODE = st.one_of(st.sampled_from([0.0, math.pi, variance.EPS_BOX, math.pi - variance.EPS_BOX]),
                  st.floats(-4.0, 4.0, allow_nan=False))
_STACK_FREQS = {"integer": (1.0, 2.0, 3.0, 4.0), "non-integer": (0.7, 1.9, 3.2, 4.45)}


@st.composite
def _node_stacks(draw):
    r = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_NODE, min_size=r, max_size=r), min_size=1, max_size=6))
    if r > 1 and draw(st.booleans()):
        rows[0][1] = rows[0][0]  # duplicated node
    rows.append(list(rows[-1]))  # duplicated row
    return r, np.array(rows)


@given(stack=_node_stacks(), d=st.integers(1, 4), scheme=st.sampled_from(["uniform", "weighted"]),
       freqs=st.sampled_from(sorted(_STACK_FREQS)))
def test_stacked_objective_matches_scalar(stack, d, scheme, freqs):
    r, free = stack
    fs = FrequencySet(_STACK_FREQS[freqs][:r])
    got = variance.stacked_objective(free, fs, d, scheme)
    scalar = F_unif if scheme == "uniform" else F_wgt
    for row, value in zip(free, got):
        nodes = ShiftNodes("odd", tuple(row)) if d % 2 else ShiftNodes("even", (0.0, *row))
        try:
            want = scalar(nodes, fs, d)
        except SingularNodesError:
            assert value == math.inf
            continue
        assert abs(value - want) <= 1e-12 * abs(want)


def test_stacked_objective_validates_shape_and_scheme():
    with pytest.raises(ValueError, match="shape"):
        variance.stacked_objective(np.zeros((3, 3)), FS12, 1, "weighted")
    with pytest.raises(ValueError, match="uniform or weighted"):
        variance.stacked_objective(np.ones((3, 2)), FS12, 1, "custom")


# --- gradients ---------------------------------------------------------------

def _fd_gradient(fn, nodes, h=1e-6):
    vals = np.asarray(nodes.values)
    out = np.zeros_like(vals)
    for i in range(vals.size):
        up = vals.copy()
        dn = vals.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fn(ShiftNodes(nodes.parity, tuple(up))) - fn(ShiftNodes(nodes.parity, tuple(dn)))) / (2 * h)
    return out


def test_grad_F_unif_matches_finite_differences():
    rng = np.random.default_rng(5)
    fs = FrequencySet((1.0, 2.0, 4.0))
    for d in (1, 2, 3):
        nodes = random_valid_nodes(fs, d, rng)
        got = grad_F_unif(nodes, fs, d)
        ref = _fd_gradient(lambda n: F_unif(n, fs, d), nodes)
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-8)


def test_grad_F_unif_equidistant_formula():
    # component i equals (-1)^i / (r^2 sin^2(x_i/2)) * sum_k k^2 cos(k x_i)
    for r in (2, 4, 6):
        nodes = equidistant_nodes(r, "odd")
        got = grad_F_unif(nodes, integer_frequencies(r), 1)
        x = nodes.as_array()
        k = np.arange(1, r)
        want = [
            (-1.0) ** (i + 1) / (r**2 * math.sin(x[i] / 2) ** 2) * np.sum(k**2 * np.cos(k * x[i]))
            for i in range(r)
        ]
        assert np.allclose(got, want, rtol=1e-9)
        assert got[0] < 0


def test_grad_F_unif_single_node_analytic():
    fs = integer_frequencies(1)
    for x1 in (0.4, 1.1, 2.2):
        got = grad_F_unif(ShiftNodes("odd", (x1,)), fs, 1)
        assert got[0] == pytest.approx(-math.cos(x1) / math.sin(x1) ** 3, rel=1e-10)
    assert abs(grad_F_unif(ShiftNodes("odd", (math.pi / 2,)), fs, 1)[0]) < 1e-14


def test_subgrad_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(6)
    fs = FrequencySet((1.0, 2.0, 4.0))
    checked = 0
    while checked < 10:
        d = int(rng.choice([1, 2, 3]))
        nodes = random_valid_nodes(fs, d, rng)
        b, _ = solve_coefficients(nodes, fs, d)
        if np.min(np.abs(b)) < 1e-2:
            continue  # near a kink; the subgradient need not match differences
        got = subgrad_F_wgt(nodes, fs, d)
        ref = _fd_gradient(lambda n: F_wgt(n, fs, d), nodes)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6)
        checked += 1


def test_subgrad_zero_at_weighted_optimum():
    assert np.linalg.norm(subgrad_F_wgt(EQUI2, FS12, 1)) < 1e-6


def test_subgrad_single_node_analytic():
    fs = integer_frequencies(1)
    for x1 in (0.5, 1.2, 2.0):
        got = subgrad_F_wgt(ShiftNodes("odd", (x1,)), fs, 1)
        want = -math.cos(x1) * math.copysign(1.0, math.sin(x1)) / math.sin(x1) ** 2
        assert got[0] == pytest.approx(want, rel=1e-10)
    assert abs(subgrad_F_wgt(ShiftNodes("odd", (math.pi / 2,)), fs, 1)[0]) < 1e-14


# --- allocation ---------------------------------------------------------------

def test_allocate_uniform_example():
    rule = make_rule(EQUI2, FS12, 1)
    alloc = allocate("uniform", rule.expanded_coeffs, 1000)
    assert np.allclose(alloc.counts, [250.0] * 4)


def test_allocate_weighted_example():
    rule = make_rule(EQUI2, FS12, 1)
    alloc = allocate("weighted", rule.expanded_coeffs, 1000)
    fractions = np.asarray(alloc.counts) / 1000
    assert np.allclose(sorted(fractions), sorted([0.4268, 0.0732, 0.4268, 0.0732]), atol=1e-4)


def test_allocate_single_shift():
    for scheme in ("uniform", "weighted"):
        alloc = allocate(scheme, [0.5], 100)
        assert alloc.counts == (100.0,)


def test_allocate_validation():
    with pytest.raises(ValueError):
        allocate("uniform", [0.5], 0)
    with pytest.raises(ValueError):
        allocate("weighted", [0.0, 0.0], 100)
    with pytest.raises(ValueError):
        allocate("bogus", [0.5], 100)


def test_shot_allocation_invariants():
    with pytest.raises(ValueError):
        ShotAllocation("uniform", (10.0, 20.0), 100.0)
    with pytest.raises(ValueError):
        ShotAllocation("uniform", (-1.0, 101.0), 100.0)


def test_integer_shot_counts_largest_remainder():
    alloc = ShotAllocation("custom", (333.4, 333.3, 333.3), 1000.0)
    counts = integer_shot_counts(alloc)
    assert counts.sum() == 1000 and counts[0] == 334


def test_integer_shot_counts_keeps_active_shifts():
    alloc = ShotAllocation("custom", (0.4, 999.6), 1000.0)
    counts = integer_shot_counts(alloc)
    assert counts.sum() == 1000 and counts[0] >= 1


_COEFFS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)), min_size=1, max_size=12)


@given(gamma=_COEFFS, n_total=st.integers(1, 100_000), scheme=st.sampled_from(["uniform", "weighted"]))
def test_integer_shot_counts_properties(gamma, n_total, scheme):
    assume(any(g != 0.0 for g in gamma))
    alloc = allocate(scheme, gamma, n_total)
    counts = integer_shot_counts(alloc)
    assert counts.sum() == n_total
    assert np.all(counts >= 0)
    active = np.asarray(alloc.counts) > 0
    if n_total >= active.sum():
        assert np.all(counts[active] > 0)


def test_predicted_variance_r2():
    b, _ = solve_coefficients(EQUI2, FS12, 1)
    assert predicted_variance(b, "odd", "uniform").predicted_scaled_variance == pytest.approx(6.0, rel=1e-12)
    assert predicted_variance(b, "odd", "weighted").predicted_scaled_variance == pytest.approx(4.0, rel=1e-12)


def test_predicted_variance_r4():
    fs = integer_frequencies(4)
    b, _ = solve_coefficients(equidistant_nodes(4, "odd"), fs, 1)
    assert predicted_variance(b, "odd", "uniform").predicted_scaled_variance == pytest.approx(44.0, rel=1e-9)
    assert predicted_variance(b, "odd", "weighted").predicted_scaled_variance == pytest.approx(16.0, rel=1e-9)


@pytest.mark.parametrize("r", range(1, 9))
def test_variance_ratio_formula(r):
    fs = integer_frequencies(r)
    b, _ = solve_coefficients(equidistant_nodes(r, "odd"), fs, 1)
    ratio = (
        predicted_variance(b, "odd", "uniform").predicted_scaled_variance
        / predicted_variance(b, "odd", "weighted").predicted_scaled_variance
    )
    assert ratio == pytest.approx((2 * r * r + 1) / (3 * r), rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), d=st.integers(1, 4),
       integer=st.booleans(), pin=st.booleans())
def test_predicted_variance_matches_allocation_variance(seed, r, d, integer, pin):
    rng = np.random.default_rng(seed)
    fs = integer_frequencies(r) if integer else FrequencySet(tuple(np.cumsum(rng.uniform(0.3, 1.5, r))))
    nodes = random_valid_nodes(fs, d, rng)
    if pin and d % 2 == 0:
        # nodes at 0 (and at pi for integer frequencies) merge into single shifts
        vals = np.array(nodes.values)
        vals[0] = 0.0
        if integer:
            vals[-1] = math.pi
        nodes = ShiftNodes("even", tuple(vals))
        assume(np.isfinite(variance.stacked_objective([vals[1:]], fs, d, "weighted")[0]))
    rule = make_rule(nodes, fs, d)
    b, gamma, parity = rule.solve_coeffs, np.asarray(rule.expanded_coeffs), rule.parity
    n_total = 1000.0

    weighted = allocate("weighted", gamma, n_total)
    want = predicted_variance(b, parity, "weighted").predicted_scaled_variance
    assert allocation_variance(gamma, weighted.counts) * n_total == pytest.approx(want, rel=1e-9)

    # the uniform prediction gives every node the same shots, split evenly
    # over the node's shifts; for odd rules that is the uniform allocation
    phi = np.abs(rule.expanded_shifts)
    shifts_per_node = np.array([np.sum(phi == p) for p in phi])
    per_node = n_total / (len(nodes.values) * shifts_per_node)
    want = predicted_variance(b, parity, "uniform").predicted_scaled_variance
    assert allocation_variance(gamma, per_node) * n_total == pytest.approx(want, rel=1e-9)
    if parity == "odd":
        uniform = allocate("uniform", gamma, n_total)
        assert allocation_variance(gamma, uniform.counts) * n_total == pytest.approx(want, rel=1e-9)


def test_predicted_variance_custom_matches_formula():
    rule = make_rule(EQUI2, FS12, 1)
    gamma = np.asarray(rule.expanded_coeffs)
    alloc = allocate("weighted", gamma, 1000)
    rep = predicted_variance(rule.solve_coeffs, "odd", "custom", gamma=gamma,
                             counts=alloc.counts, total=1000)
    assert rep.predicted_scaled_variance == pytest.approx(4.0, rel=1e-9)


def test_weighted_dominance():
    rng = np.random.default_rng(12)
    for _ in range(30):
        r = int(rng.integers(1, 6))
        fs = integer_frequencies(r)
        nodes = random_valid_nodes(fs, 1, rng)
        b, _ = solve_coefficients(nodes, fs, 1)
        l1sq = np.sum(np.abs(b)) ** 2
        l2term = r * float(b @ b)
        assert l1sq <= l2term + 1e-12
        mags = np.sort(np.abs(b))
        if r > 1 and mags[-1] > 1.5 * mags[0]:
            assert l1sq < l2term - 1e-9


def test_optimal_allocation_beats_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        gamma = rng.uniform(-1, 1, m)
        if np.all(gamma == 0):
            continue
        n_total = 1000.0
        weights = rng.dirichlet(np.ones(m))
        var_any = allocation_variance(gamma, n_total * weights)
        var_best = np.sum(np.abs(gamma)) ** 2 / n_total
        assert var_any >= var_best - 1e-12


# --- optimizers ---------------------------------------------------------------

def test_local_uniform_single_frequency():
    res = optimize_shifts_local(integer_frequencies(1), 1, "uniform", ShiftNodes("odd", (1.0,)))
    assert abs(res.nodes.values[0] - math.pi / 2) < 1e-6
    assert res.converged


def test_local_weighted_reaches_equidistant():
    rng = np.random.default_rng(3)
    start = ShiftNodes("odd", tuple(sorted(rng.uniform(0.1, math.pi - 0.1, 2))))
    res = optimize_shifts_local(FS12, 1, "weighted", start)
    err = np.max(np.abs(canonical_nodes(res.nodes.values) - np.array([math.pi / 4, 3 * math.pi / 4])))
    assert err < 1e-3
    assert res.objective == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("fs, d, scheme, start, iterations, objective, nodes", [
    (integer_frequencies(3), 1, "uniform", (0.3, 1.1, 2.6), 48, 2.756803168905492,
     (0.6439195635754595, 1.7982472235505553, 2.686508644070871)),
    (FrequencySet((1.0, 2.0, 4.0)), 2, "weighted", (0.0, 0.4, 1.3, 2.2), 229, 15.999999999999998,
     (0.0, 0.7853981633974483, 1.5707963267948963, 2.3561944833107353)),
])
def test_local_trajectory_is_pinned(fs, d, scheme, start, iterations, objective, nodes):
    # exact figures of the backtracking (uniform) and diminishing-step
    # (weighted) descents; any change to the step ladder or its scoring shows
    res = optimize_shifts_local(fs, d, scheme, ShiftNodes("odd" if d % 2 else "even", start))
    assert (res.iterations, res.objective, res.nodes.values) == (iterations, objective, nodes)
    assert res.converged


def test_local_start_at_optimum_returns_immediately():
    res = optimize_shifts_local(FS12, 1, "weighted", EQUI2)
    assert res.iterations <= 1 and res.converged


def test_local_singular_start_raises():
    with pytest.raises(SingularNodesError):
        optimize_shifts_local(FS12, 1, "weighted", ShiftNodes("odd", (0.0, 1.0)))


def test_local_trace_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    optimize_shifts_local(FS12, 1, "weighted", ShiftNodes("odd", (0.5, 1.2)),
                          max_iters=50, trace_path=path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) >= 2
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"iter", "objective", "nodes"}
        assert len(rec["nodes"]) == 2


def test_global_weighted_finds_equidistant():
    res = optimize_shifts_global(FS12, 1, "weighted", seed=4)
    assert res.equidistant_error < 1e-3
    assert res.certificate == "global-equidistant"
    assert res.objective == pytest.approx(2.0, abs=1e-4)


def test_global_zero_generations_returns_initial_best():
    res = optimize_shifts_global(FS12, 1, "weighted", generations=0, seed=4)
    assert res.iterations == 0
    assert not res.converged
    assert np.isfinite(res.objective)


def test_global_population_floor():
    with pytest.raises(ValueError, match="population"):
        optimize_shifts_global(FS12, 1, "weighted", population=4, seed=0)


def test_global_deterministic():
    a = optimize_shifts_global(FS12, 1, "weighted", generations=40, seed=5)
    b = optimize_shifts_global(FS12, 1, "weighted", generations=40, seed=5)
    assert a.nodes.values == b.nodes.values and a.objective == b.objective


def test_global_nonconsecutive_frequencies_regression():
    # no closed form is available for {1,2,4}; the search output is frozen as
    # a regression baseline.  The found minimum attains the dual lower bound
    # Omega_max**d = 4 at the Omega_max-spaced node pattern (pi/8, 3pi/8, 5pi/8).
    fs = FrequencySet((1.0, 2.0, 4.0))
    res = optimize_shifts_global(fs, 1, "weighted", generations=600, seed=7)
    assert res.equidistant_error is None
    assert res.objective == pytest.approx(4.0, abs=1e-6)
    want = np.array([math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8])
    assert np.max(np.abs(canonical_nodes(res.nodes.values) - want)) < 1e-3
    # strictly better than heuristic valid nodes for the same set
    from shiftrules.experiments import valid_nodes_for

    heuristic = F_wgt(valid_nodes_for(fs, 1, seed=7), fs, 1)
    assert res.objective < heuristic - 1e-6


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", (1, 2))
def test_global_objective_belongs_to_returned_nodes(d, scheme):
    fs = FrequencySet((0.7, 1.9, 3.2))
    res = optimize_shifts_global(fs, d, scheme, generations=60, seed=3)
    scalar = F_unif if scheme == "uniform" else F_wgt
    assert res.objective == scalar(res.nodes, fs, d)


def test_global_scores_each_generation_in_one_stacked_call(monkeypatch):
    calls = []
    real = variance.stacked_objective

    def counting(free, *args):
        calls.append(len(free))
        return real(free, *args)

    monkeypatch.setattr(variance, "stacked_objective", counting)
    res = optimize_shifts_global(FS12, 1, "weighted", generations=25, seed=5)
    # the initial population, then one call per generation run
    assert calls == [30] * (1 + res.iterations)


def test_certify_equidistant_optimality():
    assert certify_equidistant_optimality(3, 1)
    assert certify_equidistant_optimality(2, 3)
    assert certify_equidistant_optimality(4, 2)


def test_canonical_nodes_folding():
    vals = [2 * math.pi - 0.7, 0.3, math.pi + 0.2]
    got = canonical_nodes(vals)
    assert np.allclose(got, sorted([0.7, 0.3, math.pi - 0.2]))


# --- landscape -----------------------------------------------------------------

@pytest.mark.parametrize("d", (1, 3, 5))
def test_landscape_minimum_near_equidistant(d):
    grid, values = scan_landscape(FS12, d, "weighted", n=61)
    i, j = np.unravel_index(np.argmin(np.where(np.isfinite(values), values, np.inf)), values.shape)
    cell = grid[1] - grid[0]
    assert min(abs(grid[i] - math.pi / 4), abs(grid[i] - 3 * math.pi / 4)) <= cell
    assert min(abs(grid[j] - math.pi / 4), abs(grid[j] - 3 * math.pi / 4)) <= cell


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", range(1, 7))
def test_landscape_matches_scalar_objective_exactly(d, scheme):
    grid, values = scan_landscape(FS12, d, scheme, n=9)
    scalar = F_unif if scheme == "uniform" else F_wgt
    for i, x1 in enumerate(grid):
        for j, x2 in enumerate(grid):
            nodes = ShiftNodes("odd", (x1, x2)) if d % 2 else ShiftNodes("even", (0.0, x1, x2))
            try:
                want = scalar(nodes, FS12, d)
            except SingularNodesError:
                want = math.inf
            assert values[i, j] == want, (i, j)
