import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shiftrules import epsr, experiments, qsim, variance
from shiftrules.experiments import (
    RESULT3_RANDOM_NODES,
    ExperimentConfig,
    _draw_valid_nodes,
    _level_tables,
    _write_csv,
    random_base_params,
    run_experiment,
    sampled_estimates,
    valid_nodes_for,
    xxz_hva_setup,
)
from shiftrules.spectra import FrequencySet, integer_frequencies

from oracles import rowwise_csv, rule_error_bound


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig("nope")
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig("result1", repetitions=0)
    for q in (0, 2, qsim.MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=f"q must be in 3..{qsim.MAX_QUBITS}, not {q}"):
            ExperimentConfig("result1", q=q)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be finite"):
            ExperimentConfig("result1", delta=delta)


def test_config_scheme_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        ExperimentConfig("landscape", scheme="bogus")
    with pytest.raises(ValueError, match="uniform or weighted"):
        ExperimentConfig("de-sweep", scheme="custom")
    for scheme in ("uniform", "unif", "weighted", "wgt"):
        assert ExperimentConfig("landscape", scheme=scheme).scheme == scheme


def test_config_method_validation(tmp_path):
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="unknown sampling method 'bogus'"):
        run_experiment(ExperimentConfig("result2", method="bogus", out_dir=str(out_dir)))
    assert not out_dir.exists()
    for method in ("multinomial", "gaussian"):
        assert ExperimentConfig("result2", method=method).method == method


def test_config_params_validation():
    assert ExperimentConfig("result2").params == (0, 1)
    assert ExperimentConfig("result2", p=2, params=[0, 7]).params == (0, 7)
    for p, params in ((2, (0, 8)), (1, (4,)), (2, (-1,))):
        with pytest.raises(ValueError, match="out of range"):
            ExperimentConfig("result2", p=p, params=params)


def test_config_checks_name_the_flag_before_any_directory_exists(tmp_path):
    out_dir = str(tmp_path / "o")
    for kwargs, message in (({"seed": -1}, "--seed must be non-negative, not -1"),
                            ({"params": ()}, "--params needs at least one parameter index"),
                            ({"method": "bogus"}, "--method: unknown sampling method 'bogus'"),
                            ({"r_max": 0}, "--r-max must be positive, not 0")):
        with pytest.raises(experiments.ConfigError, match=message):
            ExperimentConfig("result2", out_dir=out_dir, **kwargs)
    assert not (tmp_path / "o").exists()


def test_write_csv_stream_and_timestamp():
    table = {"i": [0, 1], "s": ["a", "b"], "x": [0.1, -0.0], "y": [float("inf"), 1 / 3]}
    buf = io.StringIO()
    _write_csv(buf, table, reproducible=True)
    assert buf.getvalue() == ("i,s,x,y\n0,a,0.10000000000000001,inf\n"
                              "1,b,-0,0.33333333333333331\n")
    stamped = io.StringIO()
    _write_csv(stamped, table, reproducible=False)
    first, rest = stamped.getvalue().split("\n", 1)
    assert first.startswith("# generated ")
    assert rest == buf.getvalue()


def _float_column(pool: list, n: int):
    # floats drawn from a small pool, so most values repeat
    return st.lists(st.sampled_from(pool), min_size=n, max_size=n)


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def _csv_tables(draw):
    n = draw(st.integers(0, 30))
    kinds = {
        "int": st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n),
        "np.int64": st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        "bool": st.lists(st.booleans(), min_size=n, max_size=n),
        "np.bool_": st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        "str": st.lists(st.text(max_size=6), min_size=n, max_size=n),
        "range": st.integers(-5, 5).map(lambda start: range(start, start + n)),
        "float": st.lists(st.floats() | _SPECIAL_FLOATS, min_size=1, max_size=4).flatmap(
            lambda pool: _float_column(pool, n)),
        "np.float64": st.lists(st.floats() | _SPECIAL_FLOATS, min_size=1, max_size=4).flatmap(
            lambda pool: _float_column(pool, n)).map(lambda v: np.array(v, dtype=np.float64)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))
    return {f"{kind}{k}": draw(kinds[kind]) for k, kind in enumerate(names)}


@given(_csv_tables())
def test_write_csv_equals_the_rowwise_oracle(table):
    buf = io.StringIO()
    _write_csv(buf, table, reproducible=True)
    assert buf.getvalue() == rowwise_csv(list(table), list(zip(*table.values())))


def test_write_csv_rejects_a_short_column_before_opening_the_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column 'b' has 1 rows, not 2"):
        _write_csv(path, {"a": [1, 2], "b": np.array([0.5]), "c": range(2)}, reproducible=True)
    assert not path.exists()


def test_write_csv_without_rows_writes_the_header_alone():
    buf = io.StringIO()
    _write_csv(buf, {"repetition": range(0), "estimate": np.array([])}, reproducible=True)
    assert buf.getvalue() == "repetition,estimate\n"


def test_valid_nodes_integer_sets_are_equidistant():
    nodes = valid_nodes_for(integer_frequencies(3), 1)
    assert nodes.values == epsr.equidistant_nodes(3, "odd").values


def test_valid_nodes_scale_to_the_common_step_without_a_solve(monkeypatch):
    # at q = 10 every slice's set is 2 * {1..r}, where the unscaled pattern
    # is singular; the pattern divided by the step is A(x) of {1..r}
    circuit, obs = xxz_hva_setup(10, 2, 0.5)
    theta = random_base_params(10, 2, 0)
    sets = [qsim.slice_frequencies(circuit, j, obs, theta) for j in range(circuit.n_params)]
    monkeypatch.setattr(epsr, "solve_coefficients", None)
    for fs in sets:
        assert fs.frequencies == tuple(2.0 * k for k in range(1, fs.r + 1))
        for d, parity in ((1, "odd"), (2, "even")):
            nodes = valid_nodes_for(fs, d)
            assert nodes == epsr.ShiftNodes(parity, [x / 2 for x in epsr.equidistant_nodes(fs.r, parity).values])
    monkeypatch.undo()
    for fs in sets:
        epsr.solve_coefficients(valid_nodes_for(fs, 2), fs, 2)  # must not raise


def test_valid_nodes_falls_back_when_pattern_singular():
    # the unscaled even-parity pattern duplicates cosine columns for {1,2,4}
    fs = FrequencySet((1.0, 2.0, 4.0))
    pattern = epsr.equidistant_nodes(3, "even")
    with pytest.raises(epsr.SingularNodesError):
        epsr.solve_coefficients(pattern, fs, 2)
    nodes = _draw_valid_nodes(fs, 2, np.random.default_rng(19), first=pattern)
    epsr.solve_coefficients(nodes, fs, 2)  # must not raise
    assert nodes.values[0] == 0.0
    assert nodes != pattern


@pytest.mark.parametrize("d", range(1, 7))
def test_valid_nodes_try_the_pattern_scaled_to_the_largest_frequency(d):
    fs = FrequencySet((1.0, 2.0, 4.0))
    nodes = valid_nodes_for(fs, d)
    want = [(2 * i - 1) * math.pi / 8 for i in range(1, 4)] if d % 2 else [i * math.pi / 4 for i in range(4)]
    np.testing.assert_allclose(nodes.values, want, rtol=0, atol=1e-15)


def test_result1_makes_no_singular_solve(tmp_path, monkeypatch):
    # {1,2,4} has no common step: its first try used to be the unscaled
    # pattern, singular at every d
    singular = []
    solve = epsr.solve_coefficients

    def counted(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except epsr.SingularNodesError:
            singular.append(args)
            raise

    monkeypatch.setattr(epsr, "solve_coefficients", counted)
    run_experiment(ExperimentConfig("result1", q=5, out_dir=str(tmp_path)), reproducible=True)
    assert singular == []


def test_result3_frozen_nodes_are_valid():
    for r, sets in RESULT3_RANDOM_NODES.items():
        fs = integer_frequencies(r)
        for vals in sets:
            b, _ = epsr.solve_coefficients(epsr.ShiftNodes("odd", vals), fs, 1)
            # visibly worse than the optimum so the comparison has teeth
            assert np.sum(np.abs(b)) > 2 * r


def test_result1_quick(tmp_path):
    cfg = ExperimentConfig("result1", out_dir=str(tmp_path))
    rows = run_experiment(cfg, reproducible=True)
    assert len(rows) == 8 * 6
    circuit, obs = xxz_hva_setup(cfg.q, cfg.p, cfg.delta)
    theta = random_base_params(cfg.q, cfg.p, cfg.seed)
    for j, _, d, got, ref, err in rows:
        sl = qsim.cost_slice(circuit, obs, theta, j)
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        rule = epsr.make_rule(valid_nodes_for(fs, d, seed=cfg.seed + 31 * j + d), fs, d)
        assert got == epsr.apply_rule(rule, sl, theta[j])
        assert ref == sl.derivative(d, theta[j])
        assert err <= rule_error_bound(rule, sl), (j, d, err)
    header = (tmp_path / "result1_errors.csv").read_text().splitlines()[0]
    assert header == "param_index,param_name,d,epsr,reference,abs_error"


def test_result2_quick(tmp_path):
    cfg = ExperimentConfig("result2", repetitions=30, out_dir=str(tmp_path))
    out = run_experiment(cfg, reproducible=True)
    assert set(out) == {0, 1}
    assert len(out[0]["uniform"]) == 30
    echo = json.loads((tmp_path / "result2_config.json").read_text())
    assert len(echo["base_params"]) == 8
    assert echo["params"] == [0, 1]


def test_result3_quick(tmp_path):
    cfg = ExperimentConfig("result3", repetitions=120, out_dir=str(tmp_path))
    out = run_experiment(cfg, reproducible=True)
    for j in (0, 1):
        ve = np.var(out[j]["equidistant"], ddof=1)
        assert np.var(out[j]["random1"], ddof=1) > ve
        assert np.var(out[j]["random2"], ddof=1) > ve
    echo = json.loads((tmp_path / "result3_config.json").read_text())
    assert "node_sets" in echo


def test_landscape_csv(tmp_path):
    paths = run_experiment(ExperimentConfig("landscape", out_dir=str(tmp_path)), reproducible=True)
    assert paths == [str(tmp_path / f"landscape_d{d}.csv") for d in range(1, 7)]
    lines = (tmp_path / "landscape_d1.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,F"
    assert len(lines) == 1 + 61 * 61
    cells = [line.split(",") for line in lines[1:]]
    assert all(len(c) == 3 for c in cells)
    # the diagonal x1 == x2 is singular and written as inf
    diagonal = [c for c in cells if c[0] == c[1]]
    assert len(diagonal) == 61
    assert all(c[2] == "inf" for c in diagonal)
    assert all(np.isfinite(float(c[2])) for c in cells if c[0] != c[1])


def test_de_sweep_quick(tmp_path):
    cfg = ExperimentConfig("de-sweep", out_dir=str(tmp_path), r_max=2, d_max=2)
    rows = run_experiment(cfg, reproducible=True)
    assert len(rows) == 4
    assert all(row[3] <= 1e-3 for row in rows)


def test_default_de_sweep_certifies_every_row(tmp_path):
    # r, d <= 8: every weighted search ends within the dual gap of r**d, at
    # the equidistant nodes
    run_experiment(ExperimentConfig("de-sweep", out_dir=str(tmp_path)), reproducible=True)
    rows = np.genfromtxt(tmp_path / "de_sweep_errors.csv", delimiter=",", names=True, dtype=None,
                         encoding="utf-8")
    assert sorted(zip(rows["r"], rows["d"])) == [(r, d) for r in range(1, 9) for d in range(1, 9)]
    assert np.all(rows["max_node_error"] <= 1e-3)
    target = rows["r"].astype(float) ** rows["d"]
    assert np.all(rows["target"] == target)
    assert np.all(np.abs(rows["objective"] - target) <= 1e-6 * target)


def test_result1_builds_each_slice_once(tmp_path):
    # the Gram readout in slice_frequencies and the runner's own slice share
    # one component build per parameter
    qsim._slice_components.cache_clear()
    run_experiment(ExperimentConfig("result1", out_dir=str(tmp_path)), reproducible=True)
    assert qsim._slice_components.cache_info().misses == 8


def _xxz_slice_and_rule(j=0):
    circuit, obs = xxz_hva_setup(5, 2, 0.5)
    theta = random_base_params(5, 2, 0)
    sl = qsim.cost_slice(circuit, obs, theta, j)
    fs = qsim.slice_frequencies(circuit, j, obs, theta)
    return sl, epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1), theta[j]


def test_sampled_estimates_deterministic():
    sl, rule, xbar = _xxz_slice_and_rule()
    schemes = ("uniform", "weighted")
    a = sampled_estimates(sl, rule, xbar, schemes, 1000, 16, [1, 2])
    b = sampled_estimates(sl, rule, xbar, schemes, 1000, 16, [1, 2])
    c = sampled_estimates(sl, rule, xbar, schemes, 1000, 16, [1, 3])
    for s in schemes:
        assert a[s].shape == (16,)
        assert np.array_equal(a[s], b[s])
        assert not np.array_equal(a[s], c[s])


def test_multinomial_draws_ignore_round_off_in_the_states(monkeypatch):
    # phi1 at q=5 with result3's first random nodes: many outcome
    # probabilities are 0 by symmetry and come out as round-off; a ~1e-16
    # change in the states must not change which draws the generator makes
    j = 1
    sl, _, xbar = _xxz_slice_and_rule(j)
    fs = qsim.slice_frequencies(sl.circuit, j, sl.observable, sl.base_params)
    rule = epsr.make_rule(epsr.ShiftNodes("odd", RESULT3_RANDOM_NODES[fs.r][0]), fs, 1)
    schemes = ("uniform", "weighted")
    want = sampled_estimates(sl, rule, xbar, schemes, 1000, 50, [0, 3, j, 1])
    exact_state = qsim.CostSlice.state
    noise = np.random.default_rng(11)

    def perturbed_state(self, x):
        psi = exact_state(self, x)
        return psi + 1e-16 * (noise.standard_normal(psi.shape) + 1j * noise.standard_normal(psi.shape))

    monkeypatch.setattr(qsim.CostSlice, "state", perturbed_state)
    got = sampled_estimates(sl, rule, xbar, schemes, 1000, 50, [0, 3, j, 1])
    for s in schemes:
        assert got[s].tobytes() == want[s].tobytes()


def test_xxz_q5_eigenvalue_levels():
    levels, starts, evecs = qsim._eigensystem(qsim.build_xxz_hamiltonian(5, 0.5).terms)
    assert len(levels) == 10 and np.all(np.diff(levels) > 0)
    assert np.diff(np.r_[starts, evecs.shape[0]]).tolist() == [4, 4, 2, 4, 4, 4, 4, 2, 2, 2]


def test_multinomial_draws_ignore_the_basis_of_degenerate_eigenspaces(monkeypatch):
    # eigh's basis inside a degenerate eigenspace is arbitrary; a measurement
    # of the observable only sees the eigenspace, and so must the draws
    sl, rule, xbar = _xxz_slice_and_rule()
    schemes = ("uniform", "weighted")
    want = sampled_estimates(sl, rule, xbar, schemes, 1000, 50, [0, 3, 0, 1])
    levels, starts, evecs = qsim._eigensystem(sl.observable.terms)
    rng = np.random.default_rng(5)
    rotated = evecs.copy()
    for a, b in zip(starts, [*starts[1:], evecs.shape[0]]):
        z = rng.standard_normal((b - a, b - a)) + 1j * rng.standard_normal((b - a, b - a))
        rotated[:, a:b] = evecs[:, a:b] @ np.linalg.qr(z)[0]
    assert np.max(np.abs(rotated - evecs)) > 0.1
    monkeypatch.setattr(qsim, "_eigensystem", lambda terms: (levels, starts, rotated))
    got = sampled_estimates(sl, rule, xbar, schemes, 1000, 50, [0, 3, 0, 1])
    for s in schemes:
        assert got[s].tobytes() == want[s].tobytes()


@st.composite
def _pauli_sums(draw):
    q = draw(st.integers(1, 4))
    pauli = st.text("IXYZ", min_size=q, max_size=q)
    coeff = st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
    return qsim.PauliSumObservable(tuple(draw(st.lists(st.tuples(coeff, pauli), min_size=1, max_size=6))))


@given(obs=_pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_level_tables_are_eigenspace_projections(obs, seed):
    mat = obs.to_matrix()
    dim = mat.shape[0]
    scale = max(1.0, np.linalg.norm(mat, 2))
    levels, _, _ = qsim._eigensystem(obs.terms)
    # well-separated levels keep the null-space projectors below accurate to 1e-12
    assume(np.all(np.diff(levels) > 1e-3 * scale))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    psi = np.vstack([psi / np.linalg.norm(psi, axis=1, keepdims=True), np.eye(1, dim)])
    want, nullity = [], 0
    for lam in levels:
        _, sv, vh = np.linalg.svd(mat - lam * np.eye(dim))
        null = vh[sv < 1e-8 * scale].conj().T
        nullity += null.shape[1]
        want.append(np.linalg.norm(psi @ null.conj(), axis=1) ** 2)
    # the levels are all of the distinct eigenvalues
    assert nullity == dim
    got_levels, tables = _level_tables(obs, psi)
    assert np.array_equal(got_levels, levels)
    assert np.max(np.abs(tables.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(tables - np.array(want).T)) <= 1e-12


def test_q8_level_tables_separate_round_off_from_genuine_entries(monkeypatch):
    # the floor must sit in a gap: round-off entries below it, genuine ones far above
    monkeypatch.setattr(experiments, "_PROBABILITY_FLOOR", 0.0)
    circuit, obs = xxz_hva_setup(8, 2, 0.5)
    theta = random_base_params(8, 2, 0)
    for j in range(circuit.n_params):
        sl = qsim.cost_slice(circuit, obs, theta, j)
        fs = qsim.slice_frequencies(circuit, j, obs, theta)
        for d in (1, 2):
            rule = epsr.make_rule(valid_nodes_for(fs, d), fs, d)
            _, tables = _level_tables(obs, sl.state(theta[j] + np.asarray(rule.expanded_shifts)))
            assert np.all((tables < 1e-23) | (tables > 1e-8))


@pytest.mark.parametrize("method", ["multinomial", "gaussian"])
def test_sampled_estimates_statistics(method):
    sl, rule, xbar = _xxz_slice_and_rule()
    gamma = np.asarray(rule.expanded_coeffs)
    sigma2 = np.array([sl.one_shot_variance(xbar + phi) for phi in rule.expanded_shifts])
    exact = epsr.apply_rule(rule, sl, xbar)
    reps = 2000
    out = sampled_estimates(sl, rule, xbar, ("uniform", "weighted"), 1000, reps, [4, 4], method)
    for s, draws in out.items():
        n = variance.integer_shot_counts(variance.allocate(s, gamma, 1000, rule.expanded_shifts))
        predicted = float(np.sum(gamma**2 * sigma2 / n))
        assert abs(draws.mean() - exact) < 4 * np.sqrt(predicted / reps)
        assert np.var(draws, ddof=1) == pytest.approx(predicted, rel=0.25)


def test_sampled_estimates_zero_variance_eigenstate():
    # RZZ only rotates the phase of |00>, an eigenstate of ZZ: every shot
    # reads +1 and the rule's coefficients sum to zero
    circuit = qsim.CircuitSpec(2, (qsim.Gate("RZZ", (0, 1), 0),), 1)
    obs = qsim.PauliSumObservable(((1.0, "ZZ"),))
    sl = qsim.cost_slice(circuit, obs, [0.4], 0)
    fs = qsim.slice_frequencies(circuit, 0)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    for method in ("multinomial", "gaussian"):
        out = sampled_estimates(sl, rule, 0.4, ("uniform", "weighted"), 100, 50, [0], method)
        for draws in out.values():
            assert np.array_equal(draws, np.zeros(50))


def test_sampled_estimates_gaussian_surrogate():
    circuit, obs = xxz_hva_setup(5, 2, 0.5)
    theta = random_base_params(5, 2, 0)
    sl = qsim.cost_slice(circuit, obs, theta, 0)
    fs = qsim.slice_frequencies(circuit, 0, obs, theta)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    out = sampled_estimates(sl, rule, theta[0], ("weighted",), 1000, 200, [9, 9],
                            method="gaussian")
    exact = epsr.apply_rule(rule, sl, theta[0])
    draws = out["weighted"]
    assert abs(draws.mean() - exact) < 5 * draws.std(ddof=1) / np.sqrt(draws.size)
