"""Dense statevector testbed: XXZ/HVA circuits, expectations and shot noise.

The simulator is deliberately small: dense statevectors up to 12 qubits,
two-qubit rotation kernels applied on amplitude pairs, Pauli-sum observables,
exact expectations and one-shot variances, and a per-observable cache of the
eigensystem.  It exists to provide hardware-model cost slices on which the
shift rules and the shot-allocation predictions can be validated end to end.
The shot-noise model that samples these slices is
:func:`shiftrules.experiments.sampled_estimates`.

Qubit convention: qubit i is tensor axis i, i.e. the i-th character of a
Pauli string and the i-th bit (most significant first) of a basis index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .spectra import FrequencySet, positive_difference_frequencies, snap_to_integers
from .trigpoly import fit_least_squares

__all__ = [
    "MAX_QUBITS",
    "Gate",
    "CircuitSpec",
    "PauliSumObservable",
    "CostSlice",
    "apply_circuit",
    "expectation",
    "one_shot_variance",
    "build_xxz_hamiltonian",
    "build_hva_circuit",
    "hva_parameter_names",
    "cost_slice",
    "slice_frequencies",
    "circuit_to_json",
    "circuit_from_json",
    "observable_to_json",
    "observable_from_json",
]

#: Hard cap for dense simulation and observable eigendecomposition.
MAX_QUBITS = 12

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_H_KERNEL = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT_KERNEL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_GATE_NAMES = ("X", "H", "CNOT", "RXX", "RYY", "RZZ")
_PARAM_GATES = ("RXX", "RYY", "RZZ")


@dataclass(frozen=True)
class Gate:
    """One circuit element; ``param`` indexes the parameter binding table."""

    name: str
    qubits: tuple[int, ...]
    param: int | None = None

    def __post_init__(self):
        if self.name not in _GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        object.__setattr__(self, "qubits", tuple(int(i) for i in self.qubits))
        need = 1 if self.name in ("X", "H") else 2
        if len(self.qubits) != need:
            raise ValueError(f"gate {self.name} acts on {need} qubit(s)")
        if need == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
        if (self.name in _PARAM_GATES) != (self.param is not None):
            raise ValueError(f"gate {self.name} parameter binding is wrong")


@dataclass(frozen=True)
class CircuitSpec:
    """Gate list over q qubits with an m-entry parameter binding table.

    Every parameterized gate implements exp(-i * x/2 * P (x) P) for its Pauli
    pair, with x taken from the bound parameter.
    """

    q: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one qubit")
        if self.q > MAX_QUBITS:
            raise ValueError(f"dense simulation is capped at {MAX_QUBITS} qubits")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(i < 0 or i >= self.q for i in g.qubits):
                raise ValueError(f"gate {g.name} qubit index out of range for q={self.q}")
            if g.param is not None and not (0 <= g.param < self.n_params):
                raise ValueError(f"gate {g.name} references parameter {g.param} of {self.n_params}")


@dataclass(frozen=True)
class PauliSumObservable:
    """Hermitian observable sum_t coeff_t * P_t with real coefficients."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        terms = tuple((float(c), str(p).upper()) for c, p in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("observable needs at least one term")
        q = len(terms[0][1])
        for c, p in terms:
            if not np.isfinite(c):
                raise ValueError("coefficients must be finite")
            if len(p) != q or any(ch not in "IXYZ" for ch in p):
                raise ValueError(f"bad Pauli string {p!r}")

    @property
    def q(self) -> int:
        return len(self.terms[0][1])

    def to_matrix(self) -> np.ndarray:
        if self.q > MAX_QUBITS:
            raise ValueError(f"dense matrix capped at {MAX_QUBITS} qubits")
        dim = 2**self.q
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, pauli in self.terms:
            out += coeff * reduce(np.kron, (_PAULI_1Q[ch] for ch in pauli))
        return out


@lru_cache(maxsize=64)
def _eigensystem(terms: tuple[tuple[float, str], ...]) -> tuple[np.ndarray, np.ndarray]:
    # write-once cache per observable; read-only afterwards
    mat = PauliSumObservable(terms).to_matrix()
    evals, evecs = np.linalg.eigh(mat)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def _apply_one(psi: np.ndarray, kernel: np.ndarray, i: int) -> np.ndarray:
    out = np.tensordot(kernel, np.moveaxis(psi, i, 0), axes=([1], [0]))
    return np.moveaxis(out, 0, i)


def _apply_two(psi: np.ndarray, kernel4: np.ndarray, i: int, j: int) -> np.ndarray:
    moved = np.moveaxis(psi, (i, j), (0, 1))
    shape = moved.shape
    flat = kernel4 @ moved.reshape(4, -1)
    return np.moveaxis(flat.reshape(shape), (0, 1), (i, j))


def _rotation_kernel(name: str, x: float) -> np.ndarray:
    half = 0.5 * x
    if name == "RZZ":
        return np.diag(np.exp(-1j * half * np.array([1, -1, -1, 1])))
    pp = reduce(np.kron, (_PAULI_1Q[name[1]], _PAULI_1Q[name[2]]))
    return math.cos(half) * np.eye(4, dtype=complex) - 1j * math.sin(half) * pp


def apply_circuit(circuit: CircuitSpec, theta) -> np.ndarray:
    """State U(theta)|0...0> as a complex vector of length 2**q."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {theta.size}")
    psi = np.zeros((2,) * circuit.q, dtype=complex)
    psi[(0,) * circuit.q] = 1.0
    for g in circuit.gates:
        if g.name == "X":
            psi = np.flip(psi, axis=g.qubits[0])
        elif g.name == "H":
            psi = _apply_one(psi, _H_KERNEL, g.qubits[0])
        elif g.name == "CNOT":
            psi = _apply_two(psi, _CNOT_KERNEL, *g.qubits)
        else:
            psi = _apply_two(psi, _rotation_kernel(g.name, theta[g.param]), *g.qubits)
    flat = psi.ravel()
    norm = np.linalg.norm(flat)
    if abs(norm - 1.0) > 1e-10:
        raise AssertionError(f"statevector norm drifted to {norm}")
    return flat


def _apply_pauli_string(psi_t: np.ndarray, pauli: str) -> np.ndarray:
    out = psi_t
    for i, ch in enumerate(pauli):
        if ch == "I":
            continue
        out = _apply_one(out, _PAULI_1Q[ch], i)
    return out


def _obs_times_state(state: np.ndarray, obs: PauliSumObservable) -> np.ndarray:
    psi_t = state.reshape((2,) * obs.q)
    acc = np.zeros_like(psi_t)
    for coeff, pauli in obs.terms:
        acc = acc + coeff * _apply_pauli_string(psi_t, pauli)
    return acc.ravel()


def expectation(state: np.ndarray, obs: PauliSumObservable) -> float:
    """<psi| C |psi> for the Pauli sum C; asserts a real result."""
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 2**obs.q:
        raise ValueError("state dimension does not match the observable")
    val = complex(np.vdot(state, _obs_times_state(state, obs)))
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        raise AssertionError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def one_shot_variance(state: np.ndarray, obs: PauliSumObservable) -> float:
    """<C^2> - <C>^2: variance of a single measurement of the observable."""
    state = np.asarray(state, dtype=complex).ravel()
    phi = _obs_times_state(state, obs)
    mean = float(np.vdot(state, phi).real)
    m2 = float(np.vdot(phi, phi).real)
    var = m2 - mean * mean
    if var < -1e-9 * max(1.0, abs(m2)):
        raise AssertionError(f"negative variance {var:.3e}")
    return max(var, 0.0)


def _bonds(q: int, offset: int) -> list[tuple[int, int]]:
    # offset 0: (0,1),(2,3),...  offset 1: (1,2),(3,4),... with the periodic
    # (q-1, 0) bond appearing only when q is even
    return [(a, (a + 1) % q) for a in range(offset, q - 1 + offset, 2) if (a + 1) % q != a]


def _two_site_string(q: int, i: int, j: int, ch: str) -> str:
    s = ["I"] * q
    s[i] = ch
    s[j] = ch
    return "".join(s)


def build_xxz_hamiltonian(q: int, delta: float) -> PauliSumObservable:
    """XXZ chain sum_i X_i X_{i+1} + Y_i Y_{i+1} + delta * Z_i Z_{i+1}, periodic.

    Zero-coefficient ZZ terms (delta = 0) are dropped.
    """
    if q < 3:
        raise ValueError("XXZ chain needs q >= 3")
    terms: list[tuple[float, str]] = []
    for i in range(q):
        j = (i + 1) % q
        terms.append((1.0, _two_site_string(q, i, j, "X")))
        terms.append((1.0, _two_site_string(q, i, j, "Y")))
        if delta != 0.0:
            terms.append((float(delta), _two_site_string(q, i, j, "Z")))
    return PauliSumObservable(tuple(terms))


def hva_parameter_names(p: int) -> list[str]:
    names = []
    for layer in range(1, p + 1):
        names += [f"theta{layer}", f"phi{layer}", f"beta{layer}", f"gamma{layer}"]
    return names


def build_hva_circuit(q: int, p: int) -> CircuitSpec:
    """Depth-p Hamiltonian-variational circuit for the XXZ chain.

    Preparation: X on every qubit, then H + CNOT across each even bond
    (0,1), (2,3), ...  Each layer applies, in order, RZZ(theta_l) on the odd
    bonds, RYY(phi_l) and RXX(phi_l) on the odd bonds, RZZ(beta_l) on the
    even bonds, then RYY(gamma_l) and RXX(gamma_l) on the even bonds; phi_l
    and gamma_l are each shared between their YY and XX gate groups.  The
    parameter vector is (theta_1, phi_1, beta_1, gamma_1, theta_2, ...) of
    length 4p.

    Both bond groups carry floor(q/2) bonds.  For odd q the periodic
    boundary bond (q-1, 0) therefore belongs to neither gate group even
    though it appears in the chain observable; for even q the odd group
    includes it.
    """
    if q < 3:
        raise ValueError("the ansatz needs q >= 3")
    if p < 1:
        raise ValueError("need at least one layer")
    even = _bonds(q, 0)
    odd = _bonds(q, 1)
    gates: list[Gate] = [Gate("X", (i,)) for i in range(q)]
    for a, b in even:
        gates.append(Gate("H", (a,)))
        gates.append(Gate("CNOT", (a, b)))
    for layer in range(p):
        th, ph, be, ga = 4 * layer, 4 * layer + 1, 4 * layer + 2, 4 * layer + 3
        gates += [Gate("RZZ", bond, th) for bond in odd]
        gates += [Gate("RYY", bond, ph) for bond in odd]
        gates += [Gate("RXX", bond, ph) for bond in odd]
        gates += [Gate("RZZ", bond, be) for bond in even]
        gates += [Gate("RYY", bond, ga) for bond in even]
        gates += [Gate("RXX", bond, ga) for bond in even]
    return CircuitSpec(q, tuple(gates), 4 * p)


@dataclass(frozen=True)
class CostSlice:
    """Univariate view x -> f(theta with component j replaced by x)."""

    circuit: CircuitSpec
    observable: PauliSumObservable
    base_params: tuple[float, ...]
    index: int

    def __post_init__(self):
        base = tuple(float(v) for v in self.base_params)
        object.__setattr__(self, "base_params", base)
        if len(base) != self.circuit.n_params:
            raise ValueError("base parameter vector length mismatch")
        if not (0 <= self.index < self.circuit.n_params):
            raise ValueError("parameter index out of range")

    def _theta(self, x: float) -> np.ndarray:
        theta = np.asarray(self.base_params, dtype=float).copy()
        theta[self.index] = x
        return theta

    def state(self, x: float) -> np.ndarray:
        return apply_circuit(self.circuit, self._theta(x))

    def __call__(self, x: float) -> float:
        return expectation(self.state(x), self.observable)

    def one_shot_variance(self, x: float) -> float:
        return one_shot_variance(self.state(x), self.observable)


def cost_slice(circuit: CircuitSpec, obs: PauliSumObservable, theta_base, j: int) -> CostSlice:
    """Freeze all parameters except component j into a univariate evaluator."""
    return CostSlice(circuit, obs, tuple(np.asarray(theta_base, dtype=float)), j)


def _effective_generator(circuit: CircuitSpec, j: int) -> np.ndarray:
    """Dense Hermitian generator of the theta_j dependence.

    Each bound gate exp(-i x/2 P(x)P) contributes -1/2 * P(x)P; the bound
    gate groups of one parameter commute, so their sum generates the joint
    x dependence.
    """
    gates = [g for g in circuit.gates if g.param == j]
    if not gates:
        raise ValueError(f"no gate is bound to parameter {j}")
    dim = 2**circuit.q
    gen = np.zeros((dim, dim), dtype=complex)
    for g in gates:
        pauli = _two_site_string(circuit.q, g.qubits[0], g.qubits[1], g.name[1])
        gen += -0.5 * PauliSumObservable(((1.0, pauli),)).to_matrix()
    return gen


def slice_frequencies(circuit: CircuitSpec, j: int, observable: PauliSumObservable | None = None,
                      base_params=None, dedup_tol: float = 1e-9,
                      prune_tol: float = 1e-8) -> FrequencySet:
    """Frequency set of the cost slice in parameter j.

    The generator spectrum yields a superset of the frequencies actually
    present in the measured cost; the superset is what the gates alone can
    produce, independent of observable and input state.  When ``observable``
    and ``base_params`` are given, the exact slice is fitted over the
    superset and frequencies whose amplitude is negligible (below
    ``prune_tol`` relative to the dominant one) are dropped, exposing
    structural cancellations such as a missing gap in the final gate layer.
    """
    if circuit.q > MAX_QUBITS:
        raise ValueError(f"dense diagonalization capped at {MAX_QUBITS} qubits")
    eigs = np.linalg.eigvalsh(_effective_generator(circuit, j))
    superset = snap_to_integers(positive_difference_frequencies(eigs, dedup_tol), dedup_tol)
    if observable is None:
        return superset
    if base_params is None:
        raise ValueError("amplitude pruning needs base_params alongside the observable")

    sl = cost_slice(circuit, observable, base_params, j)
    n = max(4 * (2 * superset.r + 1), 65)
    xs = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    ys = np.array([sl(x) for x in xs])
    poly, _ = fit_least_squares(superset, xs, ys)
    amps = np.hypot(np.asarray(poly.cos_coeffs), np.asarray(poly.sin_coeffs))
    keep = amps > prune_tol * max(1.0, float(np.max(amps)))
    if not np.any(keep):
        raise ValueError("slice is constant within tolerance; no frequencies survive")
    return FrequencySet(tuple(np.asarray(superset.frequencies)[keep]))


def circuit_to_json(circuit: CircuitSpec) -> str:
    gates = []
    for g in circuit.gates:
        entry: dict = {"name": g.name, "qubits": list(g.qubits)}
        if g.param is not None:
            entry["param"] = g.param
        gates.append(entry)
    return json.dumps({"q": circuit.q, "n_params": circuit.n_params, "gates": gates}, indent=2)


def _json_get(doc, key: str, kinds: tuple, where: str):
    """``doc[key]`` if its JSON type is one of ``kinds``; ValueError naming the key otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where} is missing key {key!r}")
    if type(doc[key]) not in kinds:  # exact types: a JSON bool is not an int
        raise ValueError(f"{where} key {key!r} must be {' or '.join(k.__name__ for k in kinds)}, "
                         f"not {doc[key]!r}")
    return doc[key]


def circuit_from_json(text: str) -> CircuitSpec:
    """Inverse of :func:`circuit_to_json`; ValueError on a missing key or a non-integer index."""
    doc = json.loads(text)
    gates = []
    for g in _json_get(doc, "gates", (list,), "circuit document"):
        qubits = _json_get(g, "qubits", (list,), "gate")
        if any(type(i) is not int for i in qubits):
            raise ValueError(f"gate qubits must be integers, not {qubits!r}")
        param = None if g.get("param") is None else _json_get(g, "param", (int,), "gate")
        gates.append(Gate(_json_get(g, "name", (str,), "gate"), tuple(qubits), param))
    return CircuitSpec(_json_get(doc, "q", (int,), "circuit document"), tuple(gates),
                       _json_get(doc, "n_params", (int,), "circuit document"))


def observable_to_json(obs: PauliSumObservable) -> str:
    terms = [{"coeff": c, "pauli": p} for c, p in obs.terms]
    return json.dumps({"terms": terms}, indent=2)


def observable_from_json(text: str) -> PauliSumObservable:
    """Inverse of :func:`observable_to_json`; ValueError on a missing key or a wrong type."""
    terms = _json_get(json.loads(text), "terms", (list,), "observable document")
    return PauliSumObservable(tuple(
        (_json_get(t, "coeff", (int, float), "term"), _json_get(t, "pauli", (str,), "term")) for t in terms))
