"""Test oracles: a Fornberg central difference, a least-squares fit, a
round-off bound for shift rules, a row-wise CSV formatter, a Kronecker-chain
observable matrix and a per-point statevector simulation.

The central difference (Fornberg, Math. Comp. 51, 699, 1988) checks shift
rules without the slice's Fourier components; the fit checks that a
frequency set carries a sampled signal, through its max residual; the
row-wise formatter checks the column-wise CSV writer; the Kronecker-chain
observable matrix checks the observable's gather kernel.  The per-point
statevector path runs the whole circuit at one parameter vector, or at a
batch of values of one parameter, gate by gate with dense gate matrices
applied to the gate's tensor axes, with no Fourier split of the bound gates
and no code shared with the simulator's gate kernels: it checks
:func:`shiftrules.qsim._evolve` and :class:`shiftrules.qsim.CostSlice`.
"""

import math
from functools import lru_cache, reduce

import numpy as np

from shiftrules.epsr import build_A
from shiftrules.qsim import (
    CircuitSpec,
    PauliSumObservable,
    _apply_observable,
    _batch_result,
    _check_norms,
    _real_values,
    _variances,
)
from shiftrules.trigpoly import TrigPoly


def _fornberg_weights(z: float, grid: np.ndarray, d: int) -> np.ndarray:
    """Finite-difference weights for the d-th derivative at z on given nodes.

    Fornberg's recursive algorithm; numerically stable for the symmetric
    grids used here, unlike a direct moment-matrix solve.
    """
    n = grid.size
    c = np.zeros((n, d + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = grid[0] - z
    for i in range(1, n):
        mn = min(i, d)
        c2 = 1.0
        c5 = c4
        c4 = grid[i] - z
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, d]


# half-widths giving 8th-order (or better) accuracy per derivative order
_HALF_WIDTH = {1: 4, 2: 4, 3: 5, 4: 5, 5: 6, 6: 6}


@lru_cache(maxsize=64)
def _stencil(d: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of the central stencil for f^(d) with step h."""
    offsets = np.arange(-_HALF_WIDTH[d], _HALF_WIDTH[d] + 1) * h
    return offsets, _fornberg_weights(0.0, offsets, d)


def central_difference(f, x: float, d: int, h: float = 1e-2) -> float:
    """Central finite-difference estimate of f^(d)(x), 8th-order accurate, d = 1..6.

    ``f`` is called once, with the 1-D array of all stencil points, and must
    return the array of values at those points.
    """
    offsets, weights = _stencil(d, h)
    return float(weights @ np.asarray(f(x + offsets), dtype=float))


def fit_least_squares(fs, xs, ys) -> tuple[TrigPoly, float]:
    """The least-squares polynomial over ``fs`` through (xs, ys), and its max residual there."""
    m = np.hstack([build_A(xs, fs, "even"), build_A(xs, fs, "odd")])
    z, *_ = np.linalg.lstsq(m, ys, rcond=None)
    return TrigPoly(z[0], tuple(z[1 : fs.r + 1]), tuple(z[fs.r + 1 :]), fs), float(np.max(np.abs(m @ z - ys)))


def rule_error_bound(rule, f) -> float:
    """64 ||gamma||_1 eps max|f|: the round-off a shift rule may add to the exact derivative.

    max|f| is taken on 64 points of [0, 2 pi).  The factor 64 leaves a margin
    of about 4 over the worst HVA slice at q <= 8, p <= 2, d <= 8 (16.8).
    """
    fmax = float(np.max(np.abs(f(np.linspace(0.0, 2 * np.pi, 64, endpoint=False)))))
    return 64 * float(np.sum(np.abs(rule.expanded_coeffs))) * np.finfo(float).eps * fmax


def rowwise_csv(header, rows) -> str:
    """A header line, then each row through one ``%`` format built from the first row's types.

    ``int``/``np.integer`` take ``%d``, ``float``/``np.floating`` ``%.17g``
    and anything else ``%s``: the CSV writer's number format, one row at a
    time.
    """
    lines = [",".join(header) + "\n"]
    if rows:
        fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else
                       "%.17g" if isinstance(v, (float, np.floating)) else "%s" for v in rows[0]) + "\n"
        lines += [fmt % tuple(row) for row in rows]
    return "".join(lines)


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_FIXED_KERNELS = {
    "X": _PAULI_1Q["X"],
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_PAULI_PAIRS = {name: np.kron(_PAULI_1Q[name[1]], _PAULI_1Q[name[2]]) for name in ("RXX", "RYY", "RZZ")}


def observable_matrix(obs: PauliSumObservable) -> np.ndarray:
    """The dense 2^q x 2^q matrix of ``obs``: a sum of Kronecker chains of 2x2 Paulis."""
    out = np.zeros((2**obs.q, 2**obs.q), dtype=complex)
    for coeff, pauli in obs.terms:
        out += coeff * reduce(np.kron, (_PAULI_1Q[ch] for ch in pauli))
    return out


def _stacked_apply(psi, kernel, qubits):
    """A (2^k, 2^k) or (B, 2^k, 2^k) kernel on ``qubits`` of the batch psi (B, 2^q)."""
    b, n = psi.shape
    q = n.bit_length() - 1
    axes = [1 + i for i in qubits]
    front = list(range(1, 1 + len(axes)))
    moved = np.moveaxis(psi.reshape((b,) + (2,) * q), axes, front)
    out = kernel @ moved.reshape(b, kernel.shape[-1], -1)
    return np.moveaxis(out.reshape((out.shape[0],) + moved.shape[1:]), front, axes).reshape(-1, n)


def dense_gate(psi, g, angles):
    """Gate g on the batch psi (B, 2^q) by its dense matrix.

    ``angles[k]`` is the angle of parameter k: a float, or a (B,) array that
    gives each row its own matrix.
    """
    if g.param is None:
        return _stacked_apply(psi, _FIXED_KERNELS[g.name], g.qubits)
    half = 0.5 * np.asarray(angles[g.param], dtype=float)[..., None, None]
    return _stacked_apply(psi, np.cos(half) * np.eye(4) - 1j * np.sin(half) * _PAULI_PAIRS[g.name], g.qubits)


def dense_generator(psi, g):
    """P psi for the Pauli pair P of the rotation g, by its dense matrix."""
    return _stacked_apply(psi, _PAULI_PAIRS[g.name], g.qubits)


def _dense_evolve(circuit: CircuitSpec, angles) -> np.ndarray:
    psi = np.eye(1, 2**circuit.q, dtype=complex)
    for g in circuit.gates:
        psi = dense_gate(psi, g, angles)
    return psi


def pointwise_states(circuit: CircuitSpec, theta, j: int, xs) -> np.ndarray:
    """Slice states by per-point evolution, (B, 2**q): the oracle for component slices.

    Every gate bound to j runs as a stack of B matrices, one per point x_b;
    every other gate runs once.
    """
    angles = list(theta)
    angles[j] = np.asarray(xs, dtype=float)
    return np.broadcast_to(_dense_evolve(circuit, angles), (len(xs), 2**circuit.q))


def apply_circuit(circuit: CircuitSpec, theta) -> np.ndarray:
    """State U(theta)|0...0> as a complex vector of length 2**q."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {theta.size}")
    psi = _dense_evolve(circuit, theta)
    _check_norms(np.linalg.norm(psi, axis=1))
    return psi[0]


def _as_batch(state, obs: PauliSumObservable) -> np.ndarray:
    psi = np.asarray(state, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 2**obs.q:
        raise ValueError("state dimension does not match the observable")
    return psi.reshape(-1, 2**obs.q)


def expectation(state, obs: PauliSumObservable):
    """<psi| C |psi> for the Pauli sum C; asserts a real result.

    ``state`` is one statevector (gives a float) or a (B, 2**q) batch (gives
    an array of B values).
    """
    psi = _as_batch(state, obs)
    val = np.einsum("bi,bi->b", psi.conj(), _apply_observable(psi, obs))
    return _batch_result(_real_values(val), np.ndim(state) == 1)


def one_shot_variance(state, obs: PauliSumObservable):
    """<C^2> - <C>^2: variance of a single measurement of the observable.

    Takes one statevector (gives a float) or a (B, 2**q) batch (gives an array).
    """
    psi = _as_batch(state, obs)
    phi = _apply_observable(psi, obs)
    mean = np.einsum("bi,bi->b", psi.conj(), phi).real
    m2 = np.einsum("bi,bi->b", phi.conj(), phi).real
    return _batch_result(_variances(mean, m2), np.ndim(state) == 1)
