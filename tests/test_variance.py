import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import shiftrules
from shiftrules import epsr, variance
from shiftrules.epsr import (
    ShiftNodes,
    SingularNodesError,
    equidistant_nodes,
    evaluation_count,
    make_rule,
    solve_coefficients,
)
from shiftrules.experiments import sampled_estimates
from shiftrules.spectra import FrequencySet, integer_frequencies
from shiftrules.variance import (
    F_unif,
    F_wgt,
    allocate,
    allocation_variance,
    canonical_nodes,
    grad_F_unif,
    integer_shot_counts,
    optimize_shifts_global,
    optimize_shifts_local,
    predicted_variance,
    scan_landscape,
    subgrad_F_wgt,
)

FS12 = integer_frequencies(2)
#: A set whose first try lies above Omega_max^d at every d = 1..4, so a
#: weighted search on it runs its DE and probes.
FS7911 = FrequencySet((7.0, 9.0, 11.0))
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


@given(stack=_node_stacks(), d=st.integers(1, 4), scheme=st.sampled_from(["uniform", "weighted"]),
       freqs=st.sampled_from(sorted(_STACK_FREQS)), seed=st.integers(0, 2**32 - 1))
def test_stacked_objective_is_invariant_under_node_permutation(stack, d, scheme, freqs, seed):
    # permuting the nodes permutes the rows of A(x) and the entries of b
    r, free = stack
    fs = FrequencySet(_STACK_FREQS[freqs][:r])
    ascending = np.sort(free, axis=1)
    permuted = np.random.default_rng(seed).permuted(free, axis=1)
    want = variance.stacked_objective(ascending, fs, d, scheme)
    got = variance.stacked_objective(permuted, fs, d, scheme)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    full = ascending if d % 2 else np.concatenate([np.zeros((len(free), 1)), ascending], axis=1)
    cond = np.linalg.cond(epsr.build_A(full, fs, "odd" if d % 2 else "even"))
    for g, w, c in zip(got, want, cond):
        if math.isfinite(w) and c < 1e6:
            assert abs(g - w) <= 1e-9 * abs(w)


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
    alloc = allocate("uniform", rule.expanded_coeffs, 1000, rule.expanded_shifts)
    assert np.allclose(alloc, [250.0] * 4)


def test_allocate_weighted_example():
    rule = make_rule(EQUI2, FS12, 1)
    alloc = allocate("weighted", rule.expanded_coeffs, 1000, rule.expanded_shifts)
    fractions = alloc / 1000
    assert np.allclose(sorted(fractions), sorted([0.4268, 0.0732, 0.4268, 0.0732]), atol=1e-4)


def test_allocate_single_shift():
    for scheme in ("uniform", "weighted"):
        alloc = allocate(scheme, [0.5], 100, [1.0])
        assert alloc.tolist() == [100.0]


def test_allocate_validation():
    # the allocation's own check refuses a total that is not positive
    for n_total in (0, -5):
        with pytest.raises(ValueError, match="total shot count must be positive"):
            allocate("uniform", [0.5], n_total, [1.0])
    with pytest.raises(ValueError):
        allocate("weighted", [0.0, 0.0], 100, [1.0, 2.0])
    with pytest.raises(ValueError):
        allocate("bogus", [0.5], 100, [1.0])


@pytest.mark.parametrize("scheme", ["uniform", "weighted"])
def test_allocate_refuses_coefficients_and_shifts_of_different_lengths(scheme):
    # unchecked, uniform returned 2 counts for 3 coefficients and weighted 3
    with pytest.raises(ValueError, match="gamma has 3 coefficients but shifts has 2"):
        allocate(scheme, [1, 2, 3], 100, [0.5, 1.0])


def test_shot_allocation_class_is_gone():
    # allocate returns the counts array itself
    assert not hasattr(variance, "ShotAllocation")
    assert "ShotAllocation" not in variance.__all__
    assert "ShotAllocation" not in shiftrules.__all__ and not hasattr(shiftrules, "ShotAllocation")


_SCHEME_ENTRY_POINTS = {
    "allocate": lambda scheme: allocate(scheme, [0.5, 0.5], 100, [1.0, 2.0]),
    "predicted_variance": lambda scheme: predicted_variance([0.5, 0.5], scheme),
    "optimize_shifts_local": lambda scheme: optimize_shifts_local(FS12, 1, scheme, EQUI2),
    "optimize_shifts_global": lambda scheme: optimize_shifts_global(FS12, 1, scheme, seed=0),
}


@pytest.mark.parametrize("entry", _SCHEME_ENTRY_POINTS)
def test_every_scheme_entry_point_rejects_custom_alike(entry):
    # the paper's two splits are the only schemes; any other name, custom
    # included, gets the one message that names them
    with pytest.raises(ValueError, match="unknown scheme 'custom'; choose uniform or weighted"):
        _SCHEME_ENTRY_POINTS[entry]("custom")


def test_shot_allocation_invariants():
    # integer_shot_counts refuses negative counts, a total that is not
    # positive and a total that is not an integer
    with pytest.raises(ValueError, match="shot counts must be nonnegative"):
        integer_shot_counts([-1.0, 101.0])
    for counts in ([0.0, 0.0], [-1.0, 0.5]):
        with pytest.raises(ValueError, match="total shot count must be positive"):
            integer_shot_counts(counts)
    with pytest.raises(ValueError, match="integer rounding needs an integer total, not 100.5"):
        integer_shot_counts([50.0, 50.5])


def test_integer_shot_counts_largest_remainder():
    counts = integer_shot_counts([333.4, 333.3, 333.3])
    assert counts.sum() == 1000 and counts[0] == 334


def test_integer_shot_counts_keeps_active_shifts():
    counts = integer_shot_counts([0.4, 999.6])
    assert counts.sum() == 1000 and counts[0] >= 1


_COEFFS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)), min_size=1, max_size=12)


@given(gamma=_COEFFS, n_total=st.integers(1, 100_000), scheme=st.sampled_from(["uniform", "weighted"]))
def test_integer_shot_counts_properties(gamma, n_total, scheme):
    assume(any(g != 0.0 for g in gamma))
    alloc = allocate(scheme, gamma, n_total, range(1, len(gamma) + 1))
    assert isinstance(alloc, np.ndarray) and alloc.sum() == pytest.approx(n_total, rel=1e-12)
    counts = integer_shot_counts(alloc)
    assert counts.sum() == n_total
    assert np.all(counts >= 0)
    active = alloc > 0
    if n_total >= active.sum():
        assert np.all(counts[active] > 0)


def test_predicted_variance_r2():
    b, _ = solve_coefficients(EQUI2, FS12, 1)
    assert predicted_variance(b, "uniform") == pytest.approx(6.0, rel=1e-12)
    assert predicted_variance(b, "weighted") == pytest.approx(4.0, rel=1e-12)


def test_predicted_variance_r4():
    fs = integer_frequencies(4)
    b, _ = solve_coefficients(equidistant_nodes(4, "odd"), fs, 1)
    assert predicted_variance(b, "uniform") == pytest.approx(44.0, rel=1e-9)
    assert predicted_variance(b, "weighted") == pytest.approx(16.0, rel=1e-9)


@pytest.mark.parametrize("b,scheme,what", [
    ([1.19e200], "uniform", "m ||b||_2^2"),
    ([1.19e200], "wgt", "||b||_1^2"),
    ([1e308, 1e308], "weighted", "||b||_1^2"),  # ||b||_1 itself overflows
    ([1e154, 1e154], "unif", "m ||b||_2^2"),  # ||b||_2^2 fits, m ||b||_2^2 does not
])
def test_predicted_variance_names_an_overflow(b, scheme, what):
    # finite coefficients whose variance overflows: no inf is returned and
    # no overflow RuntimeWarning escapes (pytest turns one into an error)
    with pytest.raises(ValueError, match=rf"{variance._norm_scheme(scheme)} predicted variance "
                                         rf"{re.escape(what)} overflows the double range"):
        predicted_variance(b, scheme)


@pytest.mark.parametrize("r", range(1, 9))
def test_variance_ratio_formula(r):
    fs = integer_frequencies(r)
    b, _ = solve_coefficients(equidistant_nodes(r, "odd"), fs, 1)
    ratio = (
        predicted_variance(b, "uniform")
        / predicted_variance(b, "weighted")
    )
    assert ratio == pytest.approx((2 * r * r + 1) / (3 * r), rel=1e-9)


def _random_rule(seed, r, d, integer, pin):
    """Frequencies, nodes and rule at random valid nodes; ``pin`` moves even nodes onto 0 (and pi)."""
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
    return fs, nodes, make_rule(nodes, fs, d)


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), d=st.integers(1, 4),
       integer=st.booleans(), pin=st.booleans())
def test_predicted_variance_matches_allocation_variance(seed, r, d, integer, pin):
    fs, nodes, rule = _random_rule(seed, r, d, integer, pin)
    b, gamma = rule.solve_coeffs, np.asarray(rule.expanded_coeffs)
    n_total = 1000.0

    weighted = allocate("weighted", gamma, n_total, rule.expanded_shifts)
    want = predicted_variance(b, "weighted")
    assert allocation_variance(gamma, weighted) * n_total == pytest.approx(want, rel=1e-9)

    # the uniform prediction gives every node the same shots, split evenly
    # over the node's shifts, which is the uniform allocation
    phi = np.abs(rule.expanded_shifts)
    shifts_per_node = np.array([np.sum(phi == p) for p in phi])
    per_node = n_total / (len(nodes.values) * shifts_per_node)
    uniform = allocate("uniform", gamma, n_total, rule.expanded_shifts)
    assert np.allclose(uniform, per_node, rtol=1e-12, atol=0)
    want = predicted_variance(b, "uniform")
    assert allocation_variance(gamma, uniform) * n_total == pytest.approx(want, rel=1e-9)


class _UnitVarianceSlice:
    """A cost slice for the gaussian shot model: value 0 and one-shot variance 1 everywhere."""

    def __call__(self, points):
        return np.zeros(len(points))

    def one_shot_variance(self, points):
        return np.ones(len(points))


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), d=st.integers(1, 4),
       integer=st.booleans(), pin=st.booleans())
def test_sampled_allocation_has_the_predicted_variance(seed, r, d, integer, pin):
    # the split that sampled_estimates (and so estimate) draws has the
    # variance the rule document predicts, under both schemes and for both
    # parities, and it is the optimizers' objective up to its scale
    fs, nodes, rule = _random_rule(seed, r, d, integer, pin)
    gamma = np.asarray(rule.expanded_coeffs)
    drawn = []
    real = variance.integer_shot_counts

    def recording(allocation):
        drawn.append(allocation)
        return real(allocation)

    with mock.patch.object(variance, "integer_shot_counts", recording):
        sampled_estimates(_UnitVarianceSlice(), rule, 0.0, ("uniform", "weighted"), 1000, 1, [0], "gaussian")
    scale = {"uniform": 2 * len(nodes.values) * F_unif(nodes, fs, d), "weighted": F_wgt(nodes, fs, d) ** 2}
    assert len(drawn) == 2
    for scheme, allocation in zip(("uniform", "weighted"), drawn):
        want = predicted_variance(rule.solve_coeffs, scheme)
        assert allocation_variance(gamma, allocation) * 1000 == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(scale[scheme], rel=1e-12)


def test_weighted_split_allocation_variance_matches_formula():
    rule = make_rule(EQUI2, FS12, 1)
    gamma = np.asarray(rule.expanded_coeffs)
    alloc = allocate("weighted", gamma, 1000, rule.expanded_shifts)
    assert allocation_variance(gamma, alloc / 1000) == pytest.approx(4.0, rel=1e-9)


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


def test_local_weighted_reaches_equidistant():
    rng = np.random.default_rng(3)
    start = ShiftNodes("odd", tuple(sorted(rng.uniform(0.1, math.pi - 0.1, 2))))
    res = optimize_shifts_local(FS12, 1, "weighted", start)
    err = np.max(np.abs(canonical_nodes(res.nodes.values) - np.array([math.pi / 4, 3 * math.pi / 4])))
    assert err < 1e-3
    assert res.objective == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("fs, d, scheme, start, iterations, objective, nodes, old_objective, old_nodes", [
    (integer_frequencies(3), 1, "uniform", (0.3, 1.1, 2.6), 10, 2.756803168905494,
     (0.6439195647405194, 1.7982472220714834, 2.68650865257359),
     2.756803168905492, (0.6439195635754595, 1.7982472235505553, 2.686508644070871)),
    (FrequencySet((1.0, 2.0, 4.0)), 2, "weighted", (0.0, 0.4, 1.3, 2.2), 7, 16.0,
     (0.0, 0.7853981633974484, 1.570796326794897, 2.3561944901923426),
     15.999999999999998, (0.0, 0.7853981633974483, 1.5707963267948963, 2.3561944833107353)),
], ids=["uniform", "weighted"])
def test_local_trajectory_is_pinned(fs, d, scheme, start, iterations, objective, nodes,
                                    old_objective, old_nodes):
    # exact figures of the Newton-first descent; any change to the Newton
    # step, the step ladders or their scoring shows
    res = optimize_shifts_local(fs, d, scheme, ShiftNodes("odd" if d % 2 else "even", start))
    assert (res.iterations, res.objective, res.nodes.values) == (iterations, objective, nodes)
    # the gradient-only descent (48 and 229 iterations) ended at the same
    # optimum, but only to ~1e-8 in the nodes: its last weighted node is
    # 6.9e-9 from 3 pi / 4, where the Newton polish lands within 1e-15
    assert abs(res.objective - old_objective) <= 1e-9 * old_objective
    assert np.max(np.abs(np.subtract(res.nodes.values, old_nodes))) <= 1e-8
    if scheme == "weighted":
        assert np.allclose(res.nodes.values, np.arange(4) * math.pi / 4, rtol=0, atol=1e-14)
    else:
        assert np.linalg.norm(grad_F_unif(res.nodes, fs, d)) <= 1e-12


def test_local_newton_step_is_tried_first(monkeypatch):
    # a single frequency at d = 1: F_unif = 1 / (2 sin^2 x), minimum at pi/2;
    # from 0.4 the Newton steps land there in 9 iterations, where the
    # gradient ladder alone took 60 and stopped 2e-8 short
    calls = []
    real = variance._newton_step

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(variance, "_newton_step", counting)
    res = optimize_shifts_local(integer_frequencies(1), 1, "uniform", ShiftNodes("odd", (0.4,)))
    assert res.iterations <= 10 and len(calls) == res.iterations - 1
    assert abs(res.nodes.values[0] - math.pi / 2) < 1e-12


@pytest.mark.parametrize("fs, d, scheme, start", [
    (integer_frequencies(3), 1, "uniform", (0.3, 1.1, 2.6)),
    (FrequencySet((0.7, 1.9, 3.2)), 2, "uniform", (0.0, 0.5, 1.5, 2.5)),
    (FrequencySet((0.7, 1.9, 3.2)), 1, "weighted", (0.5, 1.5, 2.5)),
    (FrequencySet((1.992, 2.319)), 4, "weighted", (0.0, 0.6, 2.0)),
], ids=["uniform-odd", "uniform-even", "weighted-odd", "weighted-even"])
def test_local_fallback_move_is_shared_and_stops_on_a_stall(monkeypatch, fs, d, scheme, start):
    # with every Newton step failing, each iteration takes the bounded move
    # c / sqrt(t) for either scheme; its iterates hover, so the descent ends
    # by the stall rule and returns its best iterate
    monkeypatch.setattr(variance, "_newton_step", lambda *args: None)
    rows = []
    real = variance._grads

    def recording(nodes, *args):
        if len(nodes) == 1:  # the projected gradient at an iterate
            rows.append(nodes[0].copy())
        return real(nodes, *args)

    monkeypatch.setattr(variance, "_grads", recording)
    parity = "odd" if d % 2 else "even"
    res = optimize_shifts_local(fs, d, scheme, ShiftNodes(parity, start))
    # every row is an iterate: the stall rule stops without a further gradient
    iterates = np.array(rows)
    free = iterates if parity == "odd" else iterates[:, 1:]
    values = variance.stacked_objective(free, fs, d, scheme)
    best = int(np.argmin(values))
    assert len(iterates) == res.iterations < 5000
    assert res.iterations - best == variance._STALL_ITERS
    assert np.array_equal(iterates[best], res.nodes.as_array())
    assert res.objective == pytest.approx(values[best], rel=1e-13)
    assert res.objective <= values[0]  # the start lies in the box, so it is its own projection


def test_local_returns_its_start_when_every_later_iterate_is_higher():
    # from two nearly coincident nodes, no Newton rung helps and the bounded
    # move leaves for a near-singular point; Newton steps from there converge
    # at the stationary point (0.6539, 1.7338) with F_unif = 2.8713, above
    # the start, so the start is returned, and its gradient is not small
    fs = FrequencySet((0.945, 2.728))
    start = ShiftNodes("odd", (2.959465261420006, 2.9594653781970326))
    res = optimize_shifts_local(fs, 1, "uniform", start)
    assert res.objective == 1.953042528411119 < 2.8713
    assert np.max(np.abs(np.subtract(res.nodes.values, start.values))) < 1e-13
    assert np.linalg.norm(grad_F_unif(res.nodes, fs, 1)) > 0.1


def test_local_holds_a_node_on_the_box_face():
    # the uniform optimum for {0.7, 1.9, 3.2} has its last node on the face
    # pi - EPS_BOX; the projected gradient vanishes there, so the descent
    # converges instead of backtracking against the face
    fs = FrequencySet((0.7, 1.9, 3.2))
    res = optimize_shifts_local(fs, 1, "uniform", ShiftNodes("odd", (0.55, 2.45, 3.1)))
    assert res.iterations <= 10
    assert res.nodes.values[-1] == math.pi - variance.EPS_BOX
    assert res.objective == pytest.approx(3.2120300281836, rel=1e-12)


@pytest.mark.parametrize("freqs, start", [
    ((1.0, 2.0, 4.0), (0.4, 1.9, 2.7)),
    ((1.0, 2.0, 4.0), (0.3, 1.1, 2.6)),
    ((0.7, 1.9, 3.2), (0.5, 1.5, 2.5)),
    ((0.7, 1.9, 3.2), (0.7, 2.5, 3.1)),
])
def test_polished_uniform_optimum_matches_lbfgsb(freqs, start):
    # SciPy (a test dependency only) minimizes F_unif over the same box with
    # the analytic gradient from the same start
    optimize = pytest.importorskip("scipy.optimize")
    fs = FrequencySet(freqs)

    def value_and_gradient(x):
        nodes = ShiftNodes("odd", tuple(x))
        return F_unif(nodes, fs, 1), grad_F_unif(nodes, fs, 1)

    ref = optimize.minimize(value_and_gradient, start, jac=True, method="L-BFGS-B",
                            bounds=[(variance.EPS_BOX, math.pi - variance.EPS_BOX)] * 3,
                            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    res = optimize_shifts_local(fs, 1, "uniform", ShiftNodes("odd", start))
    assert ref.success
    assert abs(res.objective - ref.fun) <= 1e-9 * ref.fun
    assert np.allclose(res.nodes.values, ref.x, rtol=0, atol=1e-5)


def test_local_start_at_optimum_returns_immediately():
    res = optimize_shifts_local(FS12, 1, "weighted", EQUI2)
    assert res.iterations <= 1


def test_local_singular_start_raises():
    with pytest.raises(SingularNodesError):
        optimize_shifts_local(FS12, 1, "weighted", ShiftNodes("odd", (0.0, 1.0)))


@pytest.mark.parametrize("fs, d, scheme, start", [
    (integer_frequencies(3), 1, "uniform", (0.3, 1.1, 2.6)),
    (FrequencySet((1.0, 2.0, 4.0)), 2, "weighted", (0.0, 0.4, 1.3, 2.2)),
    (FrequencySet((0.7, 1.9, 3.2)), 1, "weighted", (0.5, 1.5, 2.5)),
], ids=["uniform", "weighted-even", "weighted-non-integer"])
def test_local_descent_diagnoses_only_its_start(monkeypatch, fs, d, scheme, start):
    # every step scores through the stacked solver; the scalar solve and its
    # SVD diagnostics run once, to check that the start is nonsingular
    calls = []
    real = epsr._diagnose

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(epsr, "_diagnose", counting)
    res = optimize_shifts_local(fs, d, scheme, ShiftNodes("odd" if d % 2 else "even", start))
    assert res.iterations > 1 and len(calls) == 1


def test_global_weighted_search_stops_at_the_certified_gap(monkeypatch):
    # the first probe lies beyond the budget, so only the population's own
    # gap can stop this search
    monkeypatch.setattr(variance, "_PROBE_FIRST", 10_000)
    scored = []
    real = variance.stacked_objective

    def recording(free, *args):
        values = real(free, *args)
        scored.append(values.min())  # the search updates its first array in place
        return values

    monkeypatch.setattr(variance, "stacked_objective", recording)
    fs = FS7911
    res = optimize_shifts_global(fs, 1, "weighted", generations=5000, seed=2)
    bound = variance.weighted_lower_bound(fs, 1)
    # a trial below the best member always replaces its member, so the best
    # member is the running minimum of everything scored
    gap = (np.minimum.accumulate(scored) - bound) / bound
    assert len(scored) == 1 + res.iterations
    assert gap[-1] <= variance.DUAL_GAP < gap[-2]
    assert res.objective <= bound * (1 + 1e-14)


def _recording_local(monkeypatch):
    """Record the keyword arguments and result of every local descent."""
    calls = []
    real = variance.optimize_shifts_local

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(variance, "optimize_shifts_local", recording)
    return calls


def test_global_weighted_search_stops_at_the_first_certified_probe(monkeypatch):
    scored = []
    real = variance.stacked_objective

    def recording(free, *args):
        values = real(free, *args)
        scored.append(values.min())
        return values

    monkeypatch.setattr(variance, "stacked_objective", recording)
    polishes = _recording_local(monkeypatch)
    fs = FS7911
    res = optimize_shifts_global(fs, 1, "weighted", generations=5000, seed=2)
    bound = variance.weighted_lower_bound(fs, 1)
    gap = [(p.objective - bound) / bound for _, p in polishes]
    # every polish was a capped probe, and only the last one was certified
    assert all(kwargs == {"max_iters": variance._PROBE_ITERS} for kwargs, _ in polishes)
    assert gap[-1] <= variance.DUAL_GAP < min(gap[:-1], default=math.inf)
    assert res.iterations == variance._PROBE_FIRST * 2 ** (len(polishes) - 1)
    # the probe, not the population, stopped the search; each generation is
    # still one stacked call
    assert (min(scored) - bound) / bound > variance.DUAL_GAP
    assert len(scored) == 1 + res.iterations
    assert res.nodes == polishes[-1][1].nodes and res.objective == polishes[-1][1].objective
    assert (res.objective - bound) / bound <= variance.DUAL_GAP


def test_global_probes_leave_a_non_attainable_search_unchanged(monkeypatch):
    # no node set in the box attains Omega_max**d here, so every probe fails
    # and the search must return what a search without probes returns
    fs = FrequencySet((2.7, 2.83, 3.95, 4.05, 4.22))
    generations = 32 * variance._PROBE_FIRST  # no probe at the last generation
    polishes = _recording_local(monkeypatch)
    res = optimize_shifts_global(fs, 1, "weighted", generations=generations, seed=0)
    assert res.iterations == generations
    assert res.objective == pytest.approx(4.784186830196291, rel=1e-12)  # 1.13369... * 4.22
    assert 1 < len(polishes) <= 1 + math.ceil(math.log2(generations / variance._PROBE_FIRST))
    assert polishes[-1][0] == {}  # the final polish has the full budget
    # the same search without probes: same generations, same final polish
    monkeypatch.setattr(variance, "_PROBE_FIRST", 10 * generations)
    plain = optimize_shifts_global(fs, 1, "weighted", generations=generations, seed=0)
    assert plain == res


def test_weighted_polish_stops_when_its_best_iterate_stalls(monkeypatch):
    # the final polish of this search finds its best iterate at iteration 1
    # and then hovers at a kink; without the stall stop it ran all 5000
    # iterations (about 9 s) to return the same nodes
    polishes = _recording_local(monkeypatch)
    res = optimize_shifts_global(FrequencySet((1.992, 2.319)), 4, "weighted", seed=[0, 5, 2, 4])
    assert res.objective == 31.823072938152734
    assert res.nodes == ShiftNodes("even", (0.0, 1.2072959120339726, 2.4919084512653034))
    kwargs, final = polishes[-1]
    assert kwargs == {} and final.iterations <= 2 * variance._STALL_ITERS


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", (1, 2))
def test_global_polish_never_raises_the_objective(monkeypatch, scheme, d):
    starts = []
    real = variance.optimize_shifts_local

    def recording(fs, d, scheme, start, **kwargs):
        starts.append((F_unif if scheme == "uniform" else F_wgt)(start, fs, d))
        return real(fs, d, scheme, start, **kwargs)

    monkeypatch.setattr(variance, "optimize_shifts_local", recording)
    fs = FrequencySet((0.7, 1.9, 3.2)) if scheme == "uniform" else FS7911
    res = optimize_shifts_global(fs, d, scheme, generations=30, seed=3)
    assert len(starts) == 1 and res.objective <= starts[0]


def _first_try_objective(fs, d, scheme):
    first = epsr.scaled_equidistant_nodes(fs, "odd" if d % 2 else "even")
    try:
        return (F_unif if scheme == "uniform" else F_wgt)(first, fs, d)
    except SingularNodesError:
        return math.inf


def _bank_sets(n):
    """n seeded sets with r <= 3: sorted integers from 1..12 for even k, rounded cumulative sums for odd k."""
    rng = np.random.default_rng(20261023)
    sets = []
    for k in range(n):
        r = int(rng.integers(1, 4))
        if k % 2 == 0:
            sets.append(FrequencySet(tuple(np.sort(rng.choice(np.arange(1, 13), r, replace=False)))))
        else:
            sets.append(FrequencySet(tuple(np.round(np.cumsum(rng.uniform(0.2, 2.0, r)), 3))))
    return sets


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
def test_global_search_never_ends_above_its_first_try(scheme):
    for i, fs in enumerate(_bank_sets(6)):
        for d in range(1, 5):
            res = optimize_shifts_global(fs, d, scheme, seed=[3, i, d])
            assert res.objective <= _first_try_objective(fs, d, scheme), (fs.frequencies, d)


@pytest.mark.parametrize("freqs, d, scheme, seed", [
    # the weighted first try attains Omega_max^d outside the box (nodes 0,
    # 5.50, 11.00); the search returned 2.390 against 0.1063
    ((0.272, 0.571), 4, "weighted", [3, 19, 4]),
    # certified at once; the search ran to its 1,800-generation cap at 1728.01
    ((2.0, 4.0, 5.0, 7.0, 8.0, 12.0), 3, "weighted", [3, 16, 3]),
    # not certified, but below the search's 19.56
    ((0.948, 1.291, 1.853, 2.149), 3, "weighted", [3, 29, 3]),
    # a period of 20.6, far beyond the box; the search returned 4.15e-4
    ((0.305,), 4, "uniform", [3, 0, 4]),
], ids=["wgt-pair-d4", "wgt-six-d3", "wgt-four-d3", "unif-one-d4"])
def test_global_search_returns_a_first_try_that_beats_it(freqs, d, scheme, seed):
    fs = FrequencySet(freqs)
    first = epsr.scaled_equidistant_nodes(fs, "odd" if d % 2 else "even")
    res = optimize_shifts_global(fs, d, scheme, seed=seed)
    assert res.nodes == first and res.objective == pytest.approx(_first_try_objective(fs, d, scheme), rel=1e-15)
    bound = variance.weighted_lower_bound(fs, d)
    certified = scheme == "weighted" and res.objective - bound <= variance.DUAL_GAP * bound
    # a certified first try skips the DE; any other runs it and then wins
    assert (res.iterations == 0) == certified


def test_partner_draw_gives_three_distinct_other_members():
    rng = np.random.default_rng(0)
    for npop in range(4, 130):  # every population from the floor 4 * dim at dim 1 to 15 * 8 + 9
        members = np.arange(npop)
        for _ in range(20):
            p1, p2, p3 = variance._partners(rng, npop)
            for p in (p1, p2, p3):
                assert np.all((0 <= p) & (p < npop) & (p != members))
            assert np.all((p1 != p2) & (p1 != p3) & (p2 != p3))
    # at the floor npop = 4 every other member is a partner; at npop = 5 each
    # is drawn with probability 3/4
    chosen = np.zeros((5, 5))
    for _ in range(4000):
        for p in variance._partners(rng, 5):
            chosen[np.arange(5), p] += 1
    assert np.all(np.abs(chosen[~np.eye(5, dtype=bool)] / 4000 - 0.75) < 0.04)


@pytest.mark.parametrize("r,cap", [(1, 400), (2, 600), (3, 900)])
def test_global_search_runs_at_most_max_400_300r_generations(monkeypatch, r, cap):
    # a noise objective never converges, so the search runs to its default cap
    noise = np.random.default_rng(0)
    monkeypatch.setattr(variance, "stacked_objective", lambda pop, *args: noise.random(len(pop)))
    assert optimize_shifts_global(integer_frequencies(r), 1, "uniform", seed=0).iterations == cap


def test_global_search_reports_a_stop_at_the_cap(monkeypatch):
    assert optimize_shifts_global(FS12, 1, "uniform", generations=3, seed=0).stopped_at_cap
    assert not optimize_shifts_global(FS12, 1, "weighted", seed=4).stopped_at_cap
    # a flat population stops on its spread in the first generation, which
    # is also the last one: that is not a stop at the cap
    monkeypatch.setattr(variance, "stacked_objective", lambda pop, *args: np.ones(len(pop)))
    res = optimize_shifts_global(FS12, 1, "uniform", generations=1, seed=0)
    assert res.iterations == 1 and not res.stopped_at_cap


def test_global_snaps_an_even_node_onto_pi():
    # the uniform d = 2 optimum for {1, 2, 3} has its last node at pi, where
    # the rule merges +-pi into one evaluation
    fs = integer_frequencies(3)
    res = optimize_shifts_global(fs, 2, "uniform", seed=0)
    assert res.nodes.values[-1] == math.pi
    assert evaluation_count(make_rule(res.nodes, fs, 2)) == 6


def test_snap_to_pi_keeps_the_nodes_when_the_objective_rises():
    fs = integer_frequencies(2)
    nodes = ShiftNodes("even", (0.0, 1.0, math.pi - 5e-7))
    f = F_unif(nodes, fs, 2)
    snapped, f_snapped = variance._snap_to_pi(nodes, f, True, fs, 2)
    want = F_unif(ShiftNodes("even", (0.0, 1.0, math.pi)), fs, 2)
    assert (snapped.values[-1] == math.pi) == (want <= f)
    assert f_snapped == min(f, want)
    # nothing to snap for non-integer frequencies or odd parity
    assert variance._snap_to_pi(nodes, f, True, FrequencySet((1.0, 2.5)), 2) == (nodes, f)
    odd = ShiftNodes("odd", (1.0, math.pi - 5e-7))
    assert variance._snap_to_pi(odd, 1.0, True, fs, 1) == (odd, 1.0)


def test_global_weighted_finds_equidistant():
    res = optimize_shifts_global(FS12, 1, "weighted", seed=4)
    assert res.equidistant_error < 1e-3
    assert res.objective == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("generations", [0, -5])
def test_global_generations_floor(generations):
    # zero generations would return the best initial member as the result
    with pytest.raises(ValueError, match="generations must be at least 1"):
        optimize_shifts_global(FS12, 1, "weighted", generations=generations, seed=4)


def test_global_deterministic():
    a = optimize_shifts_global(FS12, 1, "weighted", generations=40, seed=5)
    b = optimize_shifts_global(FS12, 1, "weighted", generations=40, seed=5)
    assert a.nodes.values == b.nodes.values and a.objective == b.objective


def test_global_nonconsecutive_frequencies_regression():
    # no closed form is available for {1,2,4}.  The found minimum attains the
    # dual lower bound Omega_max**d = 4 at an Omega_max-spaced node pattern:
    # every node on a distinct odd multiple of pi/8, e.g. (pi/8, 3pi/8, 5pi/8)
    # or (pi/8, 5pi/8, 7pi/8), which are equally optimal.
    fs = FrequencySet((1.0, 2.0, 4.0))
    res = optimize_shifts_global(fs, 1, "weighted", generations=600, seed=7)
    assert res.equidistant_error is None
    assert res.objective == pytest.approx(4.0, abs=1e-6)
    nodes = canonical_nodes(res.nodes.values)
    odd = 2 * np.round((nodes / (math.pi / 8) - 1) / 2) + 1
    assert np.max(np.abs(nodes - odd * math.pi / 8)) < 1e-3
    assert len(set(odd)) == len(odd)
    # strictly better than a seeded random valid node set; the
    # Omega_max-scaled pattern that valid_nodes_for tries first,
    # (pi/8, 3pi/8, 5pi/8), is one of the optima
    from shiftrules.experiments import _draw_valid_nodes, valid_nodes_for

    assert res.objective < F_wgt(_draw_valid_nodes(fs, 1, np.random.default_rng(7)), fs, 1) - 1e-6
    assert F_wgt(valid_nodes_for(fs, 1, seed=7), fs, 1) == pytest.approx(res.objective, abs=1e-9)


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", (1, 2))
def test_global_objective_belongs_to_returned_nodes(d, scheme):
    fs = FrequencySet((0.7, 1.9, 3.2))
    res = optimize_shifts_global(fs, d, scheme, generations=60, seed=3)
    scalar = F_unif if scheme == "uniform" else F_wgt
    assert res.objective == scalar(res.nodes, fs, d)


@pytest.mark.parametrize("freqs, d, scheme, generations, seed, iterations, objective, nodes", [
    ((1.0, 2.0, 3.0), 1, "uniform", 400, 0, 153, 2.7568031689054924,
     (0.6439195647405173, 1.7982472220715022, 2.68650865257352)),
    ((7.0, 9.0, 11.0), 2, "weighted", 400, 1, 40, 120.99999999999999,
     (0.0, 0.2855993321448542, 0.8567979964446563, 1.4279966607565193)),
    ((0.7, 1.9, 3.2), 3, "uniform", 200, 2, 199, 219.0000881611442,
     (0.5304801747799975, 1.5640443672602145, 2.450563332018564)),
    ((1.992, 2.319), 4, "uniform", 400, 3, 119, 241.9769632128098,
     (0.0, 1.1518558226818678, 2.432170634499448)),
    ((1.992, 2.319), 4, "weighted", 400, 4, 169, 31.823072938153175,
     (0.0, 1.2072957691432267, 2.491908550379704)),
    ((2.7, 2.83, 3.95, 4.05, 4.22), 1, "weighted", 100, 5, 100, 4.7841868301963055,
     (0.3282553070795445, 0.9829923361704834, 1.6340082382817545, 2.7986119577969193, 3.1405926535897932)),
    ((1.0, 2.0), 2, "uniform", 400, 6, 91, 3.2142077374342515,
     (0.0, 1.6422318411729333, math.pi)),
    ((1.0, 2.0, 4.0), 1, "uniform", None, 0, 172, 3.0303482899698304,
     (0.4611220247377079, 1.888213777882405, 2.7098481573176527)),
    # the last node is the box face pi - EPS_BOX
    ((0.7, 1.9, 3.2), 1, "uniform", None, 0, 272, 3.212030028183589,
     (0.581106623362306, 2.4394113212885205, 3.1405926535897932)),
], ids=["unif-123-d1", "wgt-7911-d2", "unif-nonint-d3", "unif-pair-d4", "wgt-pair-d4", "wgt-five-d1",
        "unif-12-d2", "unif-124-d1", "unif-nonint-d1"])
def test_global_search_is_pinned(freqs, d, scheme, generations, seed, iterations, objective, nodes):
    # exact figures of seeded searches: the DE stream, its stops, the probes,
    # the polish and the pi snap all show in them, and so does any change to
    # the floats with which their steps are scored
    res = optimize_shifts_global(FrequencySet(freqs), d, scheme, generations=generations, seed=seed)
    assert (res.iterations, res.objective, res.nodes.values) == (iterations, objective, nodes)


class _DrawLedger:
    """A Generator that records every draw as (method, size)."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            self.draws.append((name, args[0] if name == "random" else kwargs.get("size")))
            return method(*args, **kwargs)

        return draw


def test_global_generation_draws_the_resample_only_when_a_mutant_left_the_box(monkeypatch):
    # a generation draws the weight, the partners, the crossover mask and
    # the forced crossover, plus the out-of-box resample between the
    # partners and the mask when a mutant left the box; an empty resample
    # takes no number from the stream, so skipping it leaves every seeded
    # result as it is and saves a call
    ledgers = []
    real = np.random.default_rng

    def recording(*args, **kwargs):
        ledgers.append(_DrawLedger(real(*args, **kwargs)))
        return ledgers[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    res = optimize_shifts_global(integer_frequencies(3), 1, "uniform", seed=0)
    (ledger,) = ledgers
    draws = ledger.draws
    assert all(np.prod(size) > 0 for _, size in draws if size is not None)
    assert draws[0] == ("uniform", (45, 3))  # the initial population
    resampled, i = [], 1
    while i < len(draws):
        assert draws[i:i + 2] == [("uniform", None), ("integers", (3, 45))]
        extra = draws[i + 2][0] == "uniform"
        assert draws[i + 2 + extra:i + 4 + extra] == [("random", (45, 3)), ("integers", 45)]
        resampled.append(extra)
        i += 4 + extra
    assert len(resampled) == res.iterations
    assert any(resampled) and not all(resampled)


def test_global_scores_each_generation_in_one_stacked_call(monkeypatch):
    calls = []
    real = variance.stacked_objective

    def counting(free, *args):
        calls.append(len(free))
        return real(free, *args)

    monkeypatch.setattr(variance, "stacked_objective", counting)
    res = optimize_shifts_global(FS7911, 1, "weighted", generations=25, seed=5)
    # the initial population, then one call per generation run
    assert calls == [45] * (1 + res.iterations)


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), d=st.integers(1, 6), integer=st.booleans())
def test_weighted_lower_bound_holds_at_random_nodes(seed, r, d, integer):
    # weak duality: F_wgt >= Omega_max^d at every nonsingular node set of
    # every frequency set, nodes anywhere on the line
    rng = np.random.default_rng(seed)
    if integer:
        freqs = np.sort(rng.choice(np.arange(1, 13), r, replace=False)).astype(float)
    else:
        freqs = np.cumsum(rng.uniform(0.05, 2.0, r))
    fs = FrequencySet(tuple(freqs))
    parity = "odd" if d % 2 else "even"
    for _ in range(20):
        nodes = ShiftNodes(parity, tuple(rng.uniform(-3 * math.pi, 3 * math.pi, r + (parity == "even"))))
        try:
            value = F_wgt(nodes, fs, d)
        except SingularNodesError:
            continue
        assert value >= variance.weighted_lower_bound(fs, d) * (1 - 1e-12)
        return
    assume(False)


def test_weighted_lower_bound_values():
    assert variance.weighted_lower_bound(integer_frequencies(3), 2) == 9.0
    assert variance.weighted_lower_bound(FrequencySet((0.7, 1.9, 3.2)), 3) == 3.2**3
    with pytest.raises(ValueError, match="order"):
        variance.weighted_lower_bound(FS12, 0)


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
def test_an_order_whose_top_power_overflows_is_refused(scheme):
    # Omega_max^d beyond the double range: the bound raised OverflowError and
    # a uniform search reported a NaN objective
    fs = FrequencySet((1e150, 2e150))
    message = r"order d = 3 overflows: Omega_max\^d with Omega_max = 2e\+150"
    with pytest.raises(ValueError, match=message):
        variance.weighted_lower_bound(fs, 3)
    with pytest.raises(ValueError, match=message):
        optimize_shifts_global(fs, 3, scheme, generations=3, seed=0)
    assert variance.weighted_lower_bound(fs, 2) == 2e150**2


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


def _landscape_scalar(x1, x2, d, scheme):
    """The scalar objective at free nodes (x1, x2) of FS12, inf where singular."""
    scalar = F_unif if scheme == "uniform" else F_wgt
    nodes = ShiftNodes("odd", (x1, x2)) if d % 2 else ShiftNodes("even", (0.0, x1, x2))
    try:
        return scalar(nodes, FS12, d)
    except SingularNodesError:
        return math.inf


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", range(1, 7))
def test_landscape_matches_scalar_objective_exactly(d, scheme):
    # every entry is the scalar objective at the ascending pair, the one solved
    grid, values = scan_landscape(FS12, d, scheme, n=9)
    for i, x1 in enumerate(grid):
        for j, x2 in enumerate(grid):
            assert values[i, j] == _landscape_scalar(*sorted((x1, x2)), d, scheme), (i, j)


@pytest.mark.parametrize("scheme", ("uniform", "weighted"))
@pytest.mark.parametrize("d", range(1, 7))
def test_landscape_lower_triangle_matches_descending_pair(d, scheme):
    # the mirrored entries agree with a solve at the descending pair up to
    # round-off, which the row permutation changes
    grid, values = scan_landscape(FS12, d, scheme, n=9)
    for i in range(len(grid)):
        for j in range(i):
            want = _landscape_scalar(grid[i], grid[j], d, scheme)
            assert values[i, j] == pytest.approx(want, rel=1e-9, abs=0), (i, j)
