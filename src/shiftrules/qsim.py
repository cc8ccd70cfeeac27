"""Statevector testbed: XXZ/HVA circuits, Fourier-component cost slices and shot noise.

Statevectors up to 12 qubits carry a leading batch axis, and every operator
acts by bit-index arithmetic (as in QuEST, Jones et al., Sci. Rep. 9, 10736,
2019): a Pauli word P gives (P psi)[a] = phase (-1)^{popcount(a & Y/Z bits)}
psi[a ^ m], one gather by its X/Y flip mask m times a cached real sign.  A
rotation exp(-i x/2 P) is cos(x/2) psi - i sin(x/2) P psi, updated in place;
X, H and CNOT are short Pauli sums; observables take one gather per flip
mask.  A cost slice in a parameter bound to k Pauli rotations is a
trigonometric polynomial: each rotation is e^{-ix/2} Pi+ + e^{+ix/2} Pi-
with Pi+- = (I +- P)/2, so the slice state is a sum of k+1 Fourier
components.  A slice starts from the state before its parameter's first
bound gate (one sweep of the circuit per base point) and runs the rest once
over its components; every point is then a (k+1)-term sum for its state and
a quadratic form in the components' (k+1, k+1) Grams for its value, its
exact derivatives and its one-shot variance.

The same Grams give each slice its frequency set, :attr:`CostSlice.frequencies`:
the value is a sum of G_il e^{i(i-l)x}, so the amplitude at frequency s is
twice the modulus of the sum along G's s-th subdiagonal, and {1, ..., k}
bounds the set for any gate order, input state and observable (the general
parameter-shift setting of Wierichs, Izaac, Wang & Lin, Quantum 6, 677,
2022).  The observable eigenvalue levels behind multinomial sampling are
cached per observable; the shot-noise model that samples these slices is
:func:`shiftrules.experiments.sampled_estimates`.

Qubit convention: qubit i is the i-th character of a Pauli string and the
i-th bit (most significant first) of a basis index.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .spectra import DEFAULT_TOL, FrequencySet, _json_get

__all__ = [
    "MAX_QUBITS",
    "AMPLITUDE_TOL",
    "Gate",
    "CircuitSpec",
    "PauliSumObservable",
    "CostSlice",
    "build_xxz_hamiltonian",
    "build_hva_circuit",
    "hva_parameter_names",
    "slice_frequencies",
    "circuit_to_json",
    "circuit_from_json",
    "observable_to_json",
    "observable_from_json",
]

#: Hard cap for dense simulation and observable eigendecomposition.
MAX_QUBITS = 12

#: Relative amplitude below which :attr:`CostSlice.frequencies` drops a frequency.
#: Round-off amplitudes of the XXZ/HVA slices stay below 1e-15 (q <= 10)
#: while genuine ones reach down to 1e-9 (q = 9), so the cut sits between.
AMPLITUDE_TOL = 1e-12

#: Fixed gates as Pauli sums on the gate's qubits (CNOT: control first); no
#: word has a Y, so every phase is 1.
_FIXED_SUMS = {
    "X": ((1.0, "X"),),
    "H": ((math.sqrt(0.5), "X"), (math.sqrt(0.5), "Z")),
    "CNOT": ((0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")),
}

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
    pair, with x taken from the bound parameter.  The hash is computed once,
    at construction, since every cache keyed by a circuit hashes it per
    lookup; equality stays field by field.
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
        object.__setattr__(self, "_hash", hash((self.q, self.gates, self.n_params)))

    def __hash__(self) -> int:
        return self._hash


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


@lru_cache(maxsize=64)
def _eigensystem(terms: tuple[tuple[float, str], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observable's distinct eigenvalue levels, their first columns, and its eigenvectors.

    One dense ``eigh`` of the matrix that :func:`_apply_observable` gives
    column by column, capped at ``MAX_QUBITS``.  Sorted eigenvalues whose
    gap is within ``DEFAULT_TOL * max(1, max |lambda|)`` form one level,
    valued at the group's mean; ``starts[k]`` is the first eigenvector
    column of level k, so ``np.add.reduceat(|psi @ conj(evecs)|**2, starts,
    axis=-1)`` is ||P_lambda psi||^2 per level, whatever basis ``eigh`` picks inside a
    degenerate eigenspace.  Write-once cache per observable; read-only
    afterwards.
    """
    obs = PauliSumObservable(terms)
    if obs.q > MAX_QUBITS:
        raise ValueError(f"dense matrix capped at {MAX_QUBITS} qubits")
    # row i of C applied to the identity is C e_i, the i-th column of C
    evals, evecs = np.linalg.eigh(_apply_observable(np.eye(2**obs.q, dtype=complex), obs).T)
    tol = DEFAULT_TOL * max(1.0, float(np.abs(evals).max()))
    starts = np.flatnonzero(np.r_[True, np.diff(evals) > tol])
    levels = np.add.reduceat(evals, starts) / np.diff(np.r_[starts, evals.size])
    for a in (levels, starts, evecs):
        a.setflags(write=False)
    return levels, starts, evecs


@lru_cache(maxsize=256)
def _parity_sign(q: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(-1)^(number of set bits of ``qubits`` in the basis index), per basis index."""
    idx = np.arange(2**q)
    parity = np.zeros(2**q, dtype=int)
    for i in qubits:
        parity ^= (idx >> (q - 1 - i)) & 1
    sign = 1.0 - 2.0 * parity
    sign.setflags(write=False)
    return sign


@lru_cache(maxsize=512)
def _word(q: int, qubits: tuple[int, ...], chars: str) -> tuple[complex, int, tuple[int, ...]]:
    """The Pauli word ``chars`` on ``qubits`` as (phase (-i)^{#Y}, X/Y flip mask, Y/Z qubits)."""
    mask = sum(1 << (q - 1 - i) for i, ch in zip(qubits, chars) if ch in "XY")
    yz = tuple(i for i, ch in zip(qubits, chars) if ch in "YZ")
    return (1, -1j, -1, 1j)[chars.count("Y") % 4], mask, yz


@lru_cache(maxsize=64)
def _flip_masks(terms: tuple[tuple[float, str], ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Pauli terms grouped by X/Y flip mask: (masks m_k, diagonals).

    Row k of the diagonals holds sum_{P with mask m_k} c_P D_P, with D_P[a]
    the phase times sign of :func:`_word`, so (C psi)[a] = sum_k D_k[a]
    psi[a ^ m_k].  Write-once, like :func:`_eigensystem`.
    """
    q = len(terms[0][1])
    diags: dict[int, np.ndarray] = {}
    for coeff, pauli in terms:
        phase, flip, yz = _word(q, tuple(range(q)), pauli)
        term = coeff * phase * _parity_sign(q, yz)
        diags[flip] = diags[flip] + term if flip in diags else term.astype(complex)
    stacked = np.array(list(diags.values()))
    stacked.setflags(write=False)
    return tuple(diags), stacked


@lru_cache(maxsize=256)
def _flip_index(n: int, mask: int) -> np.ndarray:
    """arange(n) ^ mask, the gather index of an X/Y flip mask; read-only, like :func:`_parity_sign`."""
    idx = np.arange(n) ^ mask
    idx.setflags(write=False)
    return idx


def _signed_gather(psi: np.ndarray, mask: int, yz: tuple[int, ...]) -> np.ndarray:
    """(P psi) / phase for the batch psi (B, 2^q): psi itself if P is the identity, else a new array."""
    out = np.take(psi, _flip_index(psi.shape[1], mask), axis=1) if mask else psi
    return out * _parity_sign(psi.shape[1].bit_length() - 1, yz) if yz else out


def _evolve(psi: np.ndarray, gates, theta) -> np.ndarray:
    """Apply ``gates`` to the batch psi (B, 2^q), which rotations overwrite; returns the result.

    ``theta[k]`` is the float angle of parameter k.
    """
    q = psi.shape[1].bit_length() - 1
    for g in gates:
        if g.param is None:
            psi = sum(coeff * _signed_gather(psi, *_word(q, g.qubits, chars)[1:])
                      for coeff, chars in _FIXED_SUMS[g.name])
            continue
        phase, mask, yz = _word(q, g.qubits, g.name[1:])
        half = 0.5 * theta[g.param]
        cos, sin = math.cos(half), -1j * phase * math.sin(half)
        if mask:
            p_psi = _signed_gather(psi, mask, yz)
            psi *= cos
            psi += sin * p_psi
        else:
            psi *= cos + sin * _parity_sign(q, yz)
    return psi


def _projector_split(psi: np.ndarray, g: Gate) -> tuple[np.ndarray, np.ndarray]:
    """(Pi+ psi, Pi- psi) for the Pauli rotation g = e^{-ix/2} Pi+ + e^{+ix/2} Pi-, Pi+- = (I +- P)/2."""
    phase, mask, yz = _word(psi.shape[1].bit_length() - 1, g.qubits, g.name[1:])
    half_p = (0.5 * phase) * _signed_gather(psi, mask, yz)
    half = 0.5 * psi
    return half + half_p, half - half_p


@lru_cache(maxsize=8)
def _prefix_states(circuit: CircuitSpec, base_params: tuple[float, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """(t_j, the (1, 2^q) state before gate t_j) per parameter j, t_j its first bound gate or the gate count.

    One sweep of the circuit at ``base_params``, so a shared prefix runs once
    per base point, not once per parameter.  Write-once, like :func:`_eigensystem`.
    """
    starts = [next((t for t, g in enumerate(circuit.gates) if g.param == j), len(circuit.gates))
              for j in range(circuit.n_params)]
    states = {}
    psi, done = np.eye(1, 2**circuit.q, dtype=complex), 0
    for t in sorted(set(starts)):
        psi = _evolve(psi, circuit.gates[done:t], base_params)
        states[t], done = psi.copy(), t
        states[t].setflags(write=False)
    return tuple((t, states[t]) for t in starts)


class _Components(NamedTuple):
    """Fourier components W (k+1, 2^q) of a slice state and their (k+1, k+1) Grams."""

    w: np.ndarray
    norm: np.ndarray  # N = W* W^T
    mean: np.ndarray  # G = W* (CW)^T
    square: np.ndarray  # M = (CW)* (CW)^T


def _slice_components(circuit: CircuitSpec, base_params: tuple[float, ...], index: int,
                      observable: PauliSumObservable) -> _Components:
    """Fourier components of a cost slice's state, and their Grams.

    With k gates bound to ``index``, psi(x) = sum_{i=0..k} e^{-i(2i-k)x/2} W_i
    for any gate order: each bound gate splits every component into its two
    projector parts, the Pi+ part moving one index up and the Pi- part
    staying.  With e_i = e^{-i(2i-k)x/2} and the observable C, <psi|psi>,
    <C> and <C^2> at x are e^dag N e, e^dag G e and e^dag M e.  The gates
    before the first bound one come from :func:`_prefix_states`.  Built once
    per slice, by :attr:`CostSlice._components`; write-once.
    """
    start, w = _prefix_states(circuit, base_params)[index]
    for bound, run in itertools.groupby(circuit.gates[start:], lambda g: g.param == index):
        if not bound:
            w = _evolve(w, run, base_params)
            continue
        for g in run:
            plus, minus = _projector_split(w, g)
            w = np.zeros((w.shape[0] + 1, w.shape[1]), dtype=complex)
            w[:-1] = minus
            w[1:] += plus
    cw = _apply_observable(w, observable)
    out = _Components(w, w.conj() @ w.T, w.conj() @ cw.T, cw.conj() @ cw.T)
    for a in out:
        a.setflags(write=False)
    return out


def _check_norms(norms: np.ndarray) -> None:
    bad = np.abs(norms - 1.0) > 1e-10
    if np.any(bad):
        raise AssertionError(f"statevector norm drifted to {norms[bad][0]}")


def _apply_observable(psi: np.ndarray, obs: PauliSumObservable) -> np.ndarray:
    """C psi for the batch psi (B, 2^q), one gather per flip mask, by the index of :func:`_flip_index`."""
    masks, diags = _flip_masks(obs.terms)
    out = np.zeros_like(psi)
    for mask, diag in zip(masks, diags):
        out += diag * np.take(psi, _flip_index(psi.shape[1], mask), axis=1)
    return out


def _real_values(val: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Real parts of expectation values; asserts each imaginary residue is round-off.

    Round-off is measured against 1e-10 (1 + |value|), or against ``tol``
    for a value whose round-off the caller bounds itself.
    """
    if tol is None:
        tol = 1e-10 * (1.0 + np.abs(val.real))
    bad = np.abs(val.imag) > tol
    if np.any(bad):
        raise AssertionError(f"expectation has imaginary residue {val.imag[bad][0]:.3e}")
    return val.real


def _variances(mean: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """<C^2> - <C>^2, clipped at 0; asserts no value is negative beyond round-off."""
    var = m2 - mean * mean
    bad = var < -1e-9 * np.maximum(1.0, np.abs(m2))
    if np.any(bad):
        raise AssertionError(f"negative variance {var[bad][0]:.3e}")
    return np.maximum(var, 0.0)


def _batch_result(values: np.ndarray, single: bool):
    return float(values[0]) if single else values


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
    """Univariate view x -> f(theta with component j replaced by x).

    ``state``, ``__call__``, ``derivative`` and ``one_shot_variance`` take a
    scalar x (one state, a float) or a 1-D array of B points (a (B, 2**q)
    batch, an array).
    Each gate bound to ``index`` is a Pauli rotation, so the slice state is a
    sum of k+1 Fourier components (see :func:`_slice_components`): the
    circuit from the first gate bound to ``index`` runs once per slice over
    those components, which the slice holds.  A state is then
    E(x) @ W, and a value, derivative or variance is a quadratic form in the
    (k+1, k+1) Grams, with no 2**q work per point; a value reads the Gram G
    itself, and only a derivative of order d >= 1 weights it.
    Norms, imaginary residues and negative variances are still checked at
    every point.  ``frequencies`` is the slice's own frequency set.
    """

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
        if self.observable.q != self.circuit.q:
            raise ValueError(f"observable acts on {self.observable.q} qubits, the circuit on {self.circuit.q}")

    @cached_property
    def _components(self) -> _Components:
        return _slice_components(self.circuit, self.base_params, self.index, self.observable)

    @cached_property
    def frequencies(self) -> FrequencySet:
        """The frequencies s of :func:`slice_frequencies` whose amplitude 2|sum of the Gram's s-th
        subdiagonal| exceeds ``AMPLITUDE_TOL`` max(1, the largest), exposing structural cancellations
        such as a missing gap in the final gate layer; ValueError if none is left."""
        k = slice_frequencies(self.circuit, self.index).r
        amps = np.array([2.0 * abs(np.trace(self._components.mean, -s)) for s in range(1, k + 1)])
        keep = amps > AMPLITUDE_TOL * max(1.0, float(np.max(amps)))
        if not np.any(keep):
            raise ValueError("slice is constant within tolerance; no frequencies survive")
        return FrequencySet(tuple(np.flatnonzero(keep) + 1))

    def _phases(self, x) -> np.ndarray:
        """E(x): row b holds e^{-i(2i-k)x_b/2} for i = 0..k."""
        xs = np.asarray(x, dtype=float)
        if xs.ndim > 1:
            raise ValueError("slice points must be a scalar or a 1-D array")
        k = self._components.w.shape[0] - 1
        return np.exp(-0.5j * np.outer(xs, np.arange(-k, k + 1, 2)))

    def _forms(self, x, *grams: np.ndarray) -> list[np.ndarray]:
        """e^dag A e per point for each Gram A, after the norm check e^dag N e."""
        e = self._phases(x)
        ec = e.conj()
        norm2, *vals = (np.einsum("bi,il,bl->b", ec, a, e) for a in (self._components.norm, *grams))
        _check_norms(np.sqrt(norm2.real))
        return vals

    def state(self, x) -> np.ndarray:
        psi = self._phases(x) @ self._components.w
        _check_norms(np.linalg.norm(psi, axis=1))
        return psi[0] if np.ndim(x) == 0 else psi

    def __call__(self, x):
        return self.derivative(0, x)

    def derivative(self, d: int, x):
        """Exact d-th derivative at ``x``; the argument order of ``TrigPoly.derivative``.

        The value is sum_il G_il e^{i(i-l)x}, so the d-th derivative is the
        same quadratic form in G o D^d with D_il = 1j (i - l): exact to round-off
        for any order, with the norm and imaginary-residue checks of a value.
        For d >= 1 the residue is measured against the round-off of the
        Gram entries, 2^q eps sqrt(N_ii M_ll) by Cauchy-Schwarz on W and CW,
        weighted by |i - l|^d: entries that are zero up to round-off get the
        largest weights, and the terms can dwarf the derivative itself.
        """
        if d < 0:
            raise ValueError("derivative order must be >= 0")
        comps = self._components
        if d == 0:
            (val,) = self._forms(x, comps.mean)
            return _batch_result(_real_values(val, None), np.ndim(x) == 0)
        i = np.arange(comps.mean.shape[0], dtype=float)
        weights = np.subtract.outer(i, i) ** d
        (val,) = self._forms(x, comps.mean * (1j**d * weights))
        entry = np.sqrt(np.outer(np.diag(comps.norm).real, np.diag(comps.square).real))
        tol = 1e-10 + comps.w.shape[1] * np.finfo(float).eps * np.sum(entry * np.abs(weights))
        return _batch_result(_real_values(val, tol), np.ndim(x) == 0)

    def one_shot_variance(self, x):
        mean, m2 = self._forms(x, self._components.mean, self._components.square)
        return _batch_result(_variances(mean.real, m2.real), np.ndim(x) == 0)


def slice_frequencies(circuit: CircuitSpec, j: int) -> FrequencySet:
    """Superset {1, ..., k} of the frequencies of every cost slice in parameter j.

    With k gates bound to j a slice is a quadratic form in k+1 Fourier components (see
    :func:`_slice_components`); :attr:`CostSlice.frequencies` prunes the set for one slice.
    """
    k = sum(g.param == j for g in circuit.gates)
    if k == 0:
        raise ValueError(f"no gate is bound to parameter {j}")
    return FrequencySet(tuple(range(1, k + 1)))


def circuit_to_json(circuit: CircuitSpec) -> str:
    gates = []
    for g in circuit.gates:
        entry: dict = {"name": g.name, "qubits": list(g.qubits)}
        if g.param is not None:
            entry["param"] = g.param
        gates.append(entry)
    return json.dumps({"q": circuit.q, "n_params": circuit.n_params, "gates": gates}, indent=2)


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
