import json
import math

import numpy as np
import pytest

from shiftrules import qsim
from shiftrules.qsim import (
    CircuitSpec,
    Gate,
    PauliSumObservable,
    apply_circuit,
    build_hva_circuit,
    build_xxz_hamiltonian,
    circuit_from_json,
    circuit_to_json,
    cost_slice,
    expectation,
    hva_parameter_names,
    observable_from_json,
    observable_to_json,
    one_shot_variance,
    slice_frequencies,
)
from shiftrules.trigpoly import fit_from_samples


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
    poly = fit_from_samples(fs, xs, np.array([sl(x) for x in xs]))
    grid = np.linspace(-math.pi, math.pi, 17)
    resid = max(abs(poly(x) - sl(x)) for x in grid)
    assert resid < 1e-9


def test_gamma2_slice_needs_frequency_four(xxz_setup):
    circuit, obs, theta = xxz_setup
    from shiftrules.spectra import FrequencySet
    from shiftrules.trigpoly import fit_least_squares

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
