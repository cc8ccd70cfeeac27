import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from shiftrules import epsr, qsim
from shiftrules.experiments import random_base_params, valid_nodes_for, xxz_hva_setup
from shiftrules.qsim import (
    CircuitSpec,
    Gate,
    PauliSumObservable,
    build_hva_circuit,
    build_xxz_hamiltonian,
    circuit_from_json,
    circuit_to_json,
    cost_slice,
    hva_parameter_names,
    observable_from_json,
    observable_to_json,
    slice_frequencies,
)
from shiftrules.spectra import FrequencySet, positive_difference_frequencies

from oracles import (
    apply_circuit,
    central_difference,
    dense_gate,
    dense_generator,
    expectation,
    fit_least_squares,
    one_shot_variance,
    pointwise_states,
    rule_error_bound,
)


@pytest.fixture(scope="module")
def xxz_setup():
    circuit = build_hva_circuit(5, 2)
    obs = build_xxz_hamiltonian(5, 0.5)
    theta = np.random.default_rng(0).uniform(-np.pi, np.pi, 8)
    return circuit, obs, theta


# --- state evolution ---------------------------------------------------------

def test_empty_circuit_gives_ground_state():
    circ = CircuitSpec(3, (), 0)
    psi = apply_circuit(circ, [])
    want = np.zeros(8)
    want[0] = 1.0
    assert np.allclose(psi, want)


def test_x_on_all_qubits():
    circ = CircuitSpec(2, (Gate("X", (0,)), Gate("X", (1,))), 0)
    psi = apply_circuit(circ, [])
    assert psi[3] == pytest.approx(1.0)
    assert np.allclose(np.delete(psi, 3), 0.0)


def test_rzz_on_ground_state_is_global_phase():
    circ = CircuitSpec(2, (Gate("RZZ", (0, 1), 0),), 1)
    x = 0.77
    psi = apply_circuit(circ, [x])
    assert psi[0] == pytest.approx(np.exp(-1j * x / 2))
    assert np.allclose(np.abs(psi), [1.0, 0, 0, 0])


def test_cnot_and_h_make_bell_pair():
    circ = CircuitSpec(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
    psi = apply_circuit(circ, [])
    s = 1 / math.sqrt(2)
    assert np.allclose(psi, [s, 0, 0, s])


def test_norm_preserved_on_random_circuits(xxz_setup):
    circuit, _, _ = xxz_setup
    rng = np.random.default_rng(44)
    for _ in range(5):
        psi = apply_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("RXY", (0, 1), 0)
    with pytest.raises(ValueError):
        Gate("X", (0, 1))
    with pytest.raises(ValueError):
        Gate("RZZ", (0, 0), 0)
    with pytest.raises(ValueError):
        CircuitSpec(2, (Gate("X", (5,)),), 0)
    with pytest.raises(ValueError):
        CircuitSpec(2, (Gate("RZZ", (0, 1), 3),), 1)


# --- expectations --------------------------------------------------------------

def test_z_expectation_on_basis_states():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    z = PauliSumObservable(((1.0, "Z"),))
    assert expectation(psi0, z) == pytest.approx(1.0)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    assert expectation(plus, z) == pytest.approx(0.0, abs=1e-15)


def test_xxz_expectation_on_all_zeros():
    obs = build_xxz_hamiltonian(5, 0.5)
    psi = np.zeros(32, dtype=complex)
    psi[0] = 1.0
    assert expectation(psi, obs) == pytest.approx(2.5)


def test_one_shot_variance_eigenstate_is_zero():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    assert one_shot_variance(psi0, PauliSumObservable(((1.0, "Z"),))) == pytest.approx(0.0, abs=1e-14)


def test_one_shot_variance_z_on_plus():
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    assert one_shot_variance(plus, PauliSumObservable(((1.0, "Z"),))) == pytest.approx(1.0)


def test_one_shot_variance_matches_sampling(xxz_setup):
    circuit, obs, theta = xxz_setup
    psi = apply_circuit(circuit, theta)
    sigma2 = one_shot_variance(psi, obs)
    evals, evecs = np.linalg.eigh(obs.to_matrix())
    probs = np.abs(evecs.conj().T @ psi) ** 2
    shots = 10**6
    counts = np.random.default_rng(1).multinomial(shots, probs / probs.sum())
    emp_mean = counts @ evals / shots
    emp_var = counts @ (evals - emp_mean) ** 2 / (shots - 1)
    se = sigma2 * math.sqrt(2.0 / shots)  # rough standard error of a variance
    assert abs(emp_var - sigma2) < max(3 * se, 1e-3)


@st.composite
def _pauli_sums(draw):
    q = draw(st.integers(1, 4))
    pauli = st.text(alphabet="IXYZ", min_size=q, max_size=q)
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    return PauliSumObservable(tuple(draw(st.lists(st.tuples(coeff, pauli), min_size=1, max_size=6))))


@given(obs=_pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_observable_action_equals_dense_matrix(obs, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(3, 2**obs.q)) + 1j * rng.normal(size=(3, 2**obs.q))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = psi @ obs.to_matrix().T
    mean = np.einsum("bi,bi->b", psi.conj(), phi).real
    var = np.maximum(np.sum(np.abs(phi) ** 2, axis=1) - mean**2, 0.0)
    scale = 1.0 + sum(abs(c) for c, _ in obs.terms) ** 2
    assert np.allclose(expectation(psi, obs), mean, rtol=0, atol=1e-12 * scale)
    assert np.allclose(one_shot_variance(psi, obs), var, rtol=0, atol=1e-12 * scale)
    assert expectation(psi[1], obs) == pytest.approx(mean[1], rel=0, abs=1e-12 * scale)


def test_observable_matrix_qubit_cap():
    # the dense eigenbasis behind multinomial sampling stops at MAX_QUBITS
    with pytest.raises(ValueError, match="capped"):
        PauliSumObservable(((1.0, "Z" * 13),)).to_matrix()


# --- model builders ----------------------------------------------------------------

def test_xxz_term_count_and_coefficients():
    obs = build_xxz_hamiltonian(5, 0.5)
    assert len(obs.terms) == 15
    zz = [c for c, p in obs.terms if set(p) <= {"I", "Z"}]
    assert len(zz) == 5 and all(c == 0.5 for c in zz)


def test_xxz_zero_anisotropy_drops_zz():
    assert len(build_xxz_hamiltonian(3, 0.0).terms) == 6


def test_xxz_hermitian():
    mat = build_xxz_hamiltonian(4, 0.5).to_matrix()
    assert np.allclose(mat, mat.conj().T)


def test_hva_parameter_count():
    assert build_hva_circuit(5, 2).n_params == 8
    assert build_hva_circuit(5, 1).n_params == 4
    assert hva_parameter_names(2) == [
        "theta1", "phi1", "beta1", "gamma1", "theta2", "phi2", "beta2", "gamma2"
    ]


def test_hva_layer_layout():
    circ = build_hva_circuit(5, 1)
    # preparation: X on all five qubits, then H+CNOT on the even bonds (0,1), (2,3)
    prep, rest = circ.gates[:9], circ.gates[9:]
    assert [g.name for g in prep] == ["X"] * 5 + ["H", "CNOT", "H", "CNOT"]
    assert prep[5].qubits == (0,) and prep[6].qubits == (0, 1)
    assert prep[7].qubits == (2,) and prep[8].qubits == (2, 3)
    # one layer: RZZ(theta) odd bonds, RYY/RXX(phi) odd bonds,
    # RZZ(beta) even bonds, RYY/RXX(gamma) even bonds
    names = [g.name for g in rest]
    assert names == ["RZZ"] * 2 + ["RYY"] * 2 + ["RXX"] * 2 + ["RZZ"] * 2 + ["RYY"] * 2 + ["RXX"] * 2
    odd_bonds = {(1, 2), (3, 4)}
    even_bonds = {(0, 1), (2, 3)}
    assert {g.qubits for g in rest[:6]} == odd_bonds
    assert {g.qubits for g in rest[6:]} == even_bonds
    assert [g.param for g in rest] == [0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3]


def test_hva_zero_parameters_reduce_to_preparation():
    circ = build_hva_circuit(5, 2)
    prep = CircuitSpec(5, tuple(g for g in circ.gates if g.param is None), 0)
    assert np.allclose(apply_circuit(circ, np.zeros(8)), apply_circuit(prep, []))


def test_even_qubit_count_includes_periodic_bond():
    circ = build_hva_circuit(6, 1)
    assert (5, 0) in {g.qubits for g in circ.gates if g.name == "RZZ" and g.param == 0}


# --- cost slices -------------------------------------------------------------------

def test_slice_at_base_value_matches_full_expectation(xxz_setup):
    circuit, obs, theta = xxz_setup
    for j in (0, 3, 7):
        sl = cost_slice(circuit, obs, theta, j)
        full = expectation(apply_circuit(circuit, theta), obs)
        assert sl(theta[j]) == pytest.approx(full, abs=1e-12)


def test_slice_fits_with_its_frequencies(xxz_setup):
    circuit, obs, theta = xxz_setup
    sl = cost_slice(circuit, obs, theta, 0)
    fs = slice_frequencies(circuit, 0, obs, theta)
    assert fs.frequencies == (1.0, 2.0)
    xs = np.linspace(0.1, 2.8, 2 * fs.r + 1)
    poly, _ = fit_least_squares(fs, xs, np.array([sl(x) for x in xs]))
    grid = np.linspace(-math.pi, math.pi, 17)
    resid = max(abs(poly(x) - sl(x)) for x in grid)
    assert resid < 1e-9


def test_gamma2_slice_needs_frequency_four(xxz_setup):
    circuit, obs, theta = xxz_setup
    sl = cost_slice(circuit, obs, theta, 7)
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    ys = np.array([sl(x) for x in grid])
    _, resid124 = fit_least_squares(FrequencySet((1.0, 2.0, 4.0)), grid, ys)
    _, resid123 = fit_least_squares(FrequencySet((1.0, 2.0, 3.0)), grid, ys)
    assert resid124 < 1e-9
    assert resid123 > 1e-3


def test_slice_frequencies_superset_vs_pruned(xxz_setup):
    circuit, obs, theta = xxz_setup
    assert slice_frequencies(circuit, 7).frequencies == (1.0, 2.0, 3.0, 4.0)
    assert slice_frequencies(circuit, 7, obs, theta).frequencies == (1.0, 2.0, 4.0)


@pytest.mark.parametrize("j,want", [
    (0, (1.0, 2.0)), (2, (1.0, 2.0)), (4, (1.0, 2.0)), (6, (1.0, 2.0)),
    (1, (1.0, 2.0, 3.0, 4.0)), (3, (1.0, 2.0, 3.0, 4.0)), (5, (1.0, 2.0, 3.0, 4.0)),
    (7, (1.0, 2.0, 4.0)),
])
def test_slice_frequencies_all_parameters(xxz_setup, j, want):
    circuit, obs, theta = xxz_setup
    assert slice_frequencies(circuit, j, obs, theta).frequencies == want


def _dense_generator(circuit, j):
    """Dense 2^q x 2^q generator of the theta_j dependence: the oracle for q <= 8.

    Each bound gate exp(-i x/2 P(x)P) contributes -1/2 * P(x)P.
    """
    dim = 2**circuit.q
    gen = np.zeros((dim, dim), dtype=complex)
    for g in circuit.gates:
        if g.param == j:
            pauli = ["I"] * circuit.q
            for i in g.qubits:
                pauli[i] = g.name[1]
            gen += -0.5 * PauliSumObservable(((1.0, "".join(pauli)),)).to_matrix()
    return gen


def _dense_superset(circuit, j):
    gaps = positive_difference_frequencies(np.linalg.eigvalsh(_dense_generator(circuit, j))).as_array()
    assert np.allclose(gaps, np.round(gaps), rtol=0, atol=1e-9)
    return FrequencySet(tuple(np.round(gaps)))


@pytest.mark.parametrize("q", range(3, 9))
@pytest.mark.parametrize("p", [1, 2])
def test_slice_frequencies_superset_equals_dense_oracle(q, p):
    circuit = build_hva_circuit(q, p)
    for j in range(circuit.n_params):
        assert slice_frequencies(circuit, j) == _dense_superset(circuit, j)


def test_slice_frequencies_of_non_commuting_bound_gates():
    # RXX(0,1) and RZZ(1,2) anticommute: their summed generator (spectrum
    # +-1/sqrt(2)) does not generate the slice; each gate adds its own +-1/2
    circuit = CircuitSpec(3, (Gate("H", (0,)), Gate("H", (1,)), Gate("CNOT", (1, 2)),
                              Gate("RXX", (0, 1), 0), Gate("RZZ", (1, 2), 0)), 1)
    obs = PauliSumObservable(((1.0, "IIX"),))
    fs = slice_frequencies(circuit, 0)
    assert fs.frequencies == (1.0, 2.0)
    sl = cost_slice(circuit, obs, [0.4], 0)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    assert epsr.apply_rule(rule, sl, 0.4) == pytest.approx(central_difference(sl, 0.4, 1, 1e-4), abs=1e-6)


def test_slice_frequencies_of_commuting_gates_split_by_a_fixed_gate():
    # the two RZZ commute, but the H between them does not: their summed
    # generator (frequency 2 only) does not generate the slice, which has 1
    circuit = CircuitSpec(2, (Gate("H", (0,)), Gate("RZZ", (0, 1), 0),
                              Gate("H", (0,)), Gate("RZZ", (0, 1), 0)), 1)
    obs = PauliSumObservable(((1.0, "ZI"),))
    fs = slice_frequencies(circuit, 0, obs, [0.4])
    assert fs.frequencies == (1.0,)
    sl = cost_slice(circuit, obs, [0.4], 0)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    assert epsr.apply_rule(rule, sl, 0.4) == pytest.approx(central_difference(sl, 0.4, 1, 1e-4), abs=1e-6)


def test_slice_frequencies_keep_a_small_genuine_amplitude():
    # gamma1's top frequency 6 has relative amplitude 7e-7 at this base point:
    # above AMPLITUDE_TOL, and a rule without it is off by 7e-7
    circuit, obs = build_hva_circuit(7, 2), build_xxz_hamiltonian(7, 0.5)
    theta = np.random.default_rng(1).uniform(-np.pi, np.pi, 8)
    fs = slice_frequencies(circuit, 3, obs, theta)
    assert fs.frequencies == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    sl = cost_slice(circuit, obs, theta, 3)
    rule = epsr.make_rule(epsr.equidistant_nodes(fs.r, "odd"), fs, 1)
    ref = central_difference(sl, theta[3], 1, 1e-2)
    assert epsr.apply_rule(rule, sl, theta[3]) == pytest.approx(ref, abs=1e-9)


def test_slice_frequencies_keep_an_amplitude_of_3e_minus_9():
    # at q = 9, p = 3 gamma1's top frequency 8 has relative amplitude 3.3e-9;
    # a rule over {1..7} misses the exact 4th derivative by 7e-6
    circuit, obs = build_hva_circuit(9, 3), build_xxz_hamiltonian(9, 0.5)
    theta = np.random.default_rng(1).uniform(-np.pi, np.pi, 12)
    fs = slice_frequencies(circuit, 3, obs, theta)
    assert 8.0 in fs.frequencies
    sl = cost_slice(circuit, obs, theta, 3)
    rule = epsr.make_rule(valid_nodes_for(fs, 4, seed=0), fs, 4)
    assert epsr.apply_rule(rule, sl, theta[3]) == pytest.approx(sl.derivative(4, theta[3]), abs=1e-10)


@pytest.mark.parametrize("q", range(3, 9))
@pytest.mark.parametrize("p", [1, 2])
def test_rules_match_exact_slice_derivatives_to_round_off(q, p):
    # orders up to 8, beyond the central difference's 6
    circuit, obs = build_hva_circuit(q, p), build_xxz_hamiltonian(q, 0.5)
    theta = np.random.default_rng(q).uniform(-np.pi, np.pi, circuit.n_params)
    for j in range(circuit.n_params):
        sl = cost_slice(circuit, obs, theta, j)
        fs = slice_frequencies(circuit, j, obs, theta)
        for d in range(1, 9):
            rule = epsr.make_rule(valid_nodes_for(fs, d, seed=j + d), fs, d)
            err = abs(epsr.apply_rule(rule, sl, theta[j]) - sl.derivative(d, theta[j]))
            assert err <= rule_error_bound(rule, sl), (j, d, err)


def test_slice_derivative_validates_order(xxz_setup):
    circuit, obs, theta = xxz_setup
    sl = cost_slice(circuit, obs, theta, 0)
    assert type(sl.derivative(2, 0.3)) is float
    assert sl.derivative(1, np.array([0.3, 0.4])).shape == (2,)
    with pytest.raises(ValueError, match="order"):
        sl.derivative(-1, 0.3)


def _beta2_slice_q8():
    circuit, obs = xxz_hva_setup(8, 2, 0.5)
    theta = random_base_params(8, 2, 0)
    return cost_slice(circuit, obs, theta, 4), slice_frequencies(circuit, 4, obs, theta), theta[4]


def test_high_order_slice_derivative_passes_the_residue_check():
    # the 16th derivative sums terms of size sum |G_il| |i - l|^16 ~ 4e4 into
    # values ~1e4; their imaginary round-off (1.7e-7) failed a check
    # against 1 + |value|
    sl, _, _ = _beta2_slice_q8()
    xs = np.linspace(0, 6, 50)
    got = sl.derivative(16, xs)
    # the same derivative summed per frequency s: c_s is the sum of the
    # Gram's s-th diagonal (i - l = s), differentiated as (i s)^16
    gram = sl._components.mean
    k = gram.shape[0] - 1
    s = np.arange(-k, k + 1)
    c = np.array([np.trace(gram, offset=-v) for v in s])
    want = (np.exp(1j * np.outer(xs, s)) @ (c * (1j * s) ** 16)).real
    scale = np.sum(np.abs(gram) * np.abs(np.subtract.outer(np.arange(k + 1), np.arange(k + 1))) ** 16)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("d", [24, 32])
def test_slice_derivative_residue_check_covers_round_off_zero_gram_entries(d):
    # Gram entries that are zero up to round-off (the 4th diagonal sums to
    # 4.4e-17 next to max |G| = 0.40) carry the weight 4^d; their residue
    # (1.25e-2 at d = 24) exceeded 1e-10 (1 + sum |G_il| |i - l|^d)
    sl, _, _ = _beta2_slice_q8()
    xs = np.linspace(0, 6, 50)
    got = sl.derivative(d, xs)
    gram = sl._components.mean
    k = gram.shape[0] - 1
    s = np.arange(-k, k + 1)
    c = np.array([np.trace(gram, offset=-v) for v in s])
    want = (np.exp(1j * np.outer(xs, s)) @ (c * (1j * s) ** d)).real
    scale = np.sum(np.abs(gram) * np.abs(np.subtract.outer(np.arange(k + 1), np.arange(k + 1))) ** d)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("d", [0, 1, 16])
def test_slice_derivative_rejects_a_genuine_imaginary_part(d):
    sl, _, _ = _beta2_slice_q8()
    comps = sl._components
    bump = np.zeros_like(comps.mean)
    bump[0, 1] = bump[1, 0] = 1e-3j  # an anti-Hermitian part: imaginary values
    sl.__dict__["_components"] = comps._replace(mean=comps.mean + bump)
    with pytest.raises(AssertionError, match="imaginary residue"):
        sl.derivative(d, np.linspace(0.1, 6, 50))


@st.composite
def _slice_cases(draw):
    """A random circuit over 3..7 qubits, a Pauli-sum observable and a slice index.

    Gates of any name and qubits, bound to parameter 0 or 1 or unbound, are
    interleaved, so bound gates often fail to commute; parameter 2 has no
    bound gate.  Half the slices of parameters 0 and 1 start with a gate
    bound to them.
    """
    q = draw(st.integers(3, 7))
    pair = st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True)
    names = st.sampled_from(["X", "H", "CNOT", "RXX", "RYY", "RZZ"])
    gates = []
    for name in draw(st.lists(names, min_size=1, max_size=12)):
        qubits = tuple(draw(pair)[:1 if name in ("X", "H") else 2])
        gates.append(Gate(name, qubits, draw(st.integers(0, 1)) if name.startswith("R") else None))
    j = draw(st.integers(0, 2))
    if j < 2 and draw(st.booleans()):
        gates.insert(0, Gate(draw(st.sampled_from(["RXX", "RYY", "RZZ"])), tuple(draw(pair)), j))
    pauli = st.text(alphabet="IXYZ", min_size=q, max_size=q)
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0, allow_nan=False), pauli), min_size=1, max_size=4))
    return CircuitSpec(q, tuple(gates), 3), PauliSumObservable(tuple(terms)), j


@given(case=_slice_cases(), seed=st.integers(0, 2**32 - 1))
def test_component_slice_equals_pointwise_evolution(case, seed):
    circuit, obs, j = case
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    xs = rng.uniform(-2 * np.pi, 2 * np.pi, 5)
    sl = cost_slice(circuit, obs, theta, j)
    psi = pointwise_states(circuit, theta, j, xs)
    np.testing.assert_allclose(sl.state(xs), psi, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sl(xs), expectation(psi, obs), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sl.derivative(0, xs), expectation(psi, obs), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sl.one_shot_variance(xs), one_shot_variance(psi, obs), rtol=0, atol=1e-12)
    assert sl(xs[0]) == pytest.approx(expectation(psi[0], obs), rel=0, abs=1e-12)


@st.composite
def _gate_cases(draw):
    """q = 3..7 and one gate of any name on an ordered qubit pair, reversed and non-adjacent ones included."""
    q = draw(st.integers(3, 7))
    name = draw(st.sampled_from(["X", "H", "CNOT", "RXX", "RYY", "RZZ"]))
    pair = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    return q, Gate(name, tuple(pair[:1 if name in ("X", "H") else 2]), 0 if name.startswith("R") else None)


@given(case=_gate_cases(), rows=st.integers(1, 4), x=st.floats(-2 * np.pi, 2 * np.pi),
       seed=st.integers(0, 2**32 - 1))
@example(case=(5, Gate("CNOT", (3, 1))), rows=2, x=0.3, seed=1)
@example(case=(6, Gate("RYY", (5, 0), 0)), rows=3, x=-1.1, seed=2)
def test_gate_kernels_equal_dense_matrices(case, rows, x, seed):
    q, g = case
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(rows, 2**q)) + 1j * rng.normal(size=(rows, 2**q))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    got = qsim._evolve(psi.copy(), (g,), [x])
    np.testing.assert_allclose(got, dense_gate(psi, g, [x]), rtol=0, atol=1e-12)
    if g.param is not None:
        plus, minus = qsim._projector_split(psi, g)
        np.testing.assert_allclose(plus + minus, psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense_generator(plus, g), plus, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense_generator(minus, g), -minus, rtol=0, atol=1e-12)


@st.composite
def _sweep_cases(draw):
    """A random circuit over 3..6 qubits and a Pauli sum, for the prefix sweep.

    Gate 0 is bound to parameter 0, the last gate is the only one bound to
    parameter 2, gates in between are bound to parameter 0 or 1 or unbound,
    and no gate is bound to parameter 3.
    """
    q = draw(st.integers(3, 6))
    pair = st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True)
    rotations = st.sampled_from(["RXX", "RYY", "RZZ"])
    gates = [Gate(draw(rotations), tuple(draw(pair)), 0)]
    for name in draw(st.lists(st.sampled_from(["X", "H", "CNOT", "RXX", "RYY", "RZZ"]), max_size=10)):
        qubits = tuple(draw(pair)[:1 if name in ("X", "H") else 2])
        gates.append(Gate(name, qubits, draw(st.integers(0, 1)) if name.startswith("R") else None))
    gates.append(Gate(draw(rotations), tuple(draw(pair)), 2))
    pauli = st.text(alphabet="IXYZ", min_size=q, max_size=q)
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0, allow_nan=False), pauli), min_size=1, max_size=3))
    return CircuitSpec(q, tuple(gates), 4), PauliSumObservable(tuple(terms))


@given(case=_sweep_cases(), seed=st.integers(0, 2**32 - 1))
def test_prefix_sweep_components_equal_pointwise_evolution(case, seed):
    circuit, obs = case
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
    qsim._prefix_states.cache_clear()
    qsim._slice_components.cache_clear()
    n = len(circuit.gates)
    first = [min((t for t, g in enumerate(circuit.gates) if g.param == j), default=n) for j in range(4)]
    assert (first[0], first[2], first[3]) == (0, n - 1, n)
    for theta in rng.uniform(-np.pi, np.pi, (2, circuit.n_params)):  # two base points, one circuit
        for j, (start, state) in enumerate(qsim._prefix_states(circuit, tuple(theta))):
            assert start == first[j]
            before = CircuitSpec(circuit.q, circuit.gates[:start], circuit.n_params)
            np.testing.assert_allclose(state[0], apply_circuit(before, theta), rtol=0, atol=1e-14)
            sl = cost_slice(circuit, obs, theta, j)
            np.testing.assert_allclose(sl.state(xs), pointwise_states(circuit, theta, j, xs), rtol=0, atol=1e-14)
    assert qsim._prefix_states.cache_info().misses == 2


def test_slices_of_one_base_point_share_one_sweep():
    circuit, obs = build_hva_circuit(5, 2), build_xxz_hamiltonian(5, 0.5)
    theta = random_base_params(5, 2, 3)
    qsim._prefix_states.cache_clear()
    qsim._slice_components.cache_clear()
    for j in range(circuit.n_params):
        slice_frequencies(circuit, j, obs, theta)
    assert qsim._slice_components.cache_info().misses == 8
    assert qsim._prefix_states.cache_info().misses == 1


@st.composite
def _bound_slice_cases(draw):
    """A circuit over 2..5 qubits with 1..5 gates bound to parameter 0, and a Pauli sum.

    After an H layer, bound gates of any Pauli pair on random bonds, so often
    non-commuting, alternate with runs of fixed gates and gates bound to
    parameter 1.
    """
    q = draw(st.integers(2, 5))
    pair = st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True)
    rotations = st.sampled_from(["RZZ", "RYY", "RXX"])
    gates = [Gate("H", (i,)) for i in range(q)]
    for _ in range(draw(st.integers(1, 5))):
        for name in draw(st.lists(st.sampled_from(["X", "H", "CNOT", "RXX", "RYY", "RZZ"]), max_size=3)):
            qubits = tuple(draw(pair)[:1 if name in ("X", "H") else 2])
            gates.append(Gate(name, qubits, 1 if name.startswith("R") else None))
        gates.append(Gate(draw(rotations), tuple(draw(pair)), 0))
    # first elements are drawn most often; I first would make most slices constant
    pauli = st.lists(st.sampled_from("ZXYI"), min_size=q, max_size=q).map("".join)
    coeff = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    terms = draw(st.lists(st.tuples(coeff, pauli), min_size=1, max_size=4))
    return CircuitSpec(q, tuple(gates), 2), PauliSumObservable(tuple(terms))


@given(case=_bound_slice_cases(), seed=st.integers(0, 2**32 - 1))
def test_slice_frequencies_equal_fft_of_statevector_samples(case, seed):
    circuit, obs = case
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, 2)
    k = sum(g.param == 0 for g in circuit.gates)
    xs = np.linspace(0.0, 2 * np.pi, 2 * k + 2, endpoint=False)
    ys = [expectation(apply_circuit(circuit, [x, theta[1]]), obs) for x in xs]
    amps = 2 * np.abs(np.fft.rfft(ys)[1:k + 1]) / xs.size
    rel = amps / max(1.0, np.max(amps))
    assume(not np.any((rel > 1e-14) & (rel < 1e-10)))
    # f^(d)(x) = sum_s 2 Re((is)^d c_s e^{isx}) over the spectrum c_s of the samples
    coeffs = np.fft.rfft(ys)[1:k + 1] / xs.size
    s = np.arange(1.0, k + 1)
    sl = cost_slice(circuit, obs, theta, 0)
    for d in range(1, 5):
        spectral = 2 * (np.exp(1j * np.outer(xs, s)) @ ((1j * s) ** d * coeffs)).real
        scale = k ** d * max(1.0, np.max(np.abs(ys)))
        np.testing.assert_allclose(sl.derivative(d, xs), spectral, rtol=0, atol=1e-13 * scale)
    assert slice_frequencies(circuit, 0).frequencies == tuple(range(1, k + 1))
    want = tuple(np.flatnonzero(rel > 1e-12) + 1.0)
    if not want:
        with pytest.raises(ValueError, match="constant"):
            slice_frequencies(circuit, 0, obs, theta)
        return
    fs = slice_frequencies(circuit, 0, obs, theta)
    assert fs.frequencies == want
    assert set(fs.frequencies) <= set(range(1, k + 1))


@pytest.mark.parametrize("q", [5, 6])
def test_batched_slice_equals_scalar_evaluation(q):
    circuit, obs = build_hva_circuit(q, 2), build_xxz_hamiltonian(q, 0.5)
    theta = np.random.default_rng(q).uniform(-np.pi, np.pi, circuit.n_params)
    xs = np.linspace(-np.pi, np.pi, 7)
    for j in range(circuit.n_params):
        sl = cost_slice(circuit, obs, theta, j)
        values = sl(xs)
        states = sl.state(xs)
        variances = sl.one_shot_variance(xs)
        assert values.shape == variances.shape == (xs.size,)
        assert states.shape == (xs.size, 2**q)
        for k, x in enumerate(xs):
            full = theta.copy()
            full[j] = x
            assert abs(values[k] - expectation(apply_circuit(circuit, full), obs)) <= 1e-12
            np.testing.assert_allclose(states[k], sl.state(x), rtol=0, atol=1e-14)
            assert variances[k] == pytest.approx(sl.one_shot_variance(x), rel=0, abs=1e-12)
        assert type(sl(xs[0])) is float
        assert type(sl.one_shot_variance(xs[0])) is float
        assert sl.state(xs[0]).shape == (2**q,)


def test_slice_without_bound_gate_is_constant():
    circuit = CircuitSpec(2, (Gate("H", (0,)), Gate("RXX", (0, 1), 0)), 2)
    sl = cost_slice(circuit, PauliSumObservable(((1.0, "XI"),)), [0.3, 0.0], 1)
    assert sl.state(np.array([0.1, 2.0])).shape == (2, 4)
    assert np.allclose(sl(np.array([0.1, 2.0])), sl(0.7))


def test_slice_rejects_two_dimensional_points(xxz_setup):
    circuit, obs, theta = xxz_setup
    with pytest.raises(ValueError, match="1-D"):
        cost_slice(circuit, obs, theta, 0)(np.zeros((2, 2)))


def test_slice_frequencies_requires_bound_parameter():
    circ = CircuitSpec(3, (Gate("X", (0,)),), 1)
    with pytest.raises(ValueError, match="no gate"):
        slice_frequencies(circ, 0)


def test_constant_variance_assumption_is_only_approximate(xxz_setup):
    # the shot-allocation analysis treats sigma^2 as shift-independent; record
    # that the real spread is finite but not constant
    circuit, obs, theta = xxz_setup
    sl = cost_slice(circuit, obs, theta, 0)
    values = [sl.one_shot_variance(theta[0] + s) for s in np.linspace(-math.pi, math.pi, 9)]
    assert all(np.isfinite(values))
    assert max(values) / max(min(values), 1e-12) > 1.0


# --- interchange ---------------------------------------------------------------------

def test_circuit_json_roundtrip(xxz_setup):
    circuit, _, theta = xxz_setup
    back = circuit_from_json(circuit_to_json(circuit))
    assert back == circuit
    assert np.allclose(apply_circuit(back, theta), apply_circuit(circuit, theta))


def test_observable_json_roundtrip():
    obs = build_xxz_hamiltonian(4, 0.5)
    back = observable_from_json(observable_to_json(obs))
    assert back == obs


def _tampered_circuit_json(xxz_setup, tamper):
    doc = json.loads(circuit_to_json(xxz_setup[0]))
    tamper(doc)
    return json.dumps(doc)


def _first_bound_gate(doc):
    return next(g for g in doc["gates"] if "param" in g)


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: _first_bound_gate(doc).update(param=0.5), "gate key 'param' must be int, not 0.5"),
    (lambda doc: _first_bound_gate(doc).update(param=True), "gate key 'param' must be int, not True"),
    (lambda doc: doc["gates"][0].update(qubits=[0.5]), "gate qubits must be integers, not [0.5]"),
    (lambda doc: doc["gates"][0].update(qubits=[False]), "gate qubits must be integers, not [False]"),
    (lambda doc: doc["gates"][0].pop("qubits"), "gate is missing key 'qubits'"),
    (lambda doc: doc.pop("gates"), "circuit document is missing key 'gates'"),
    (lambda doc: doc.update(q="5"), "circuit document key 'q' must be int"),
], ids=["float-param", "bool-param", "float-qubit", "bool-qubit", "no-qubits", "no-gates", "str-q"])
def test_circuit_json_rejects_malformed(xxz_setup, tamper, message):
    with pytest.raises(ValueError) as info:
        circuit_from_json(_tampered_circuit_json(xxz_setup, tamper))
    assert message in str(info.value)


@pytest.mark.parametrize("text, message", [
    ("[]", "observable document must be a JSON object, not list"),
    ("{}", "observable document is missing key 'terms'"),
    ('{"terms": [{"coeff": 1.0}]}', "term is missing key 'pauli'"),
    ('{"terms": [{"pauli": "ZZ"}]}', "term is missing key 'coeff'"),
    ('{"terms": [{"coeff": "1", "pauli": "ZZ"}]}', "term key 'coeff' must be int or float"),
    ('{"terms": [{"coeff": true, "pauli": "ZZ"}]}', "term key 'coeff' must be int or float"),
    ('{"terms": ["ZZ"]}', "term must be a JSON object, not str"),
], ids=["list", "no-terms", "no-pauli", "no-coeff", "str-coeff", "bool-coeff", "str-term"])
def test_observable_json_rejects_malformed(text, message):
    with pytest.raises(ValueError) as info:
        observable_from_json(text)
    assert message in str(info.value)


def test_circuit_json_rejects_top_level_list():
    with pytest.raises(ValueError, match="circuit document must be a JSON object, not list"):
        circuit_from_json("[]")
