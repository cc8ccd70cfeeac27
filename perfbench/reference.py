"""Reference numerics for the output checks, written with numpy alone.

Nothing here imports shiftrules: each function re-derives a documented
quantity (interpolation solves, trigonometric test polynomials, the XXZ/HVA
testbed state and energy) by its own method, so a defect in the library
cannot also hide in the value it is checked against.

Testbed conventions (from the package documentation): qubit i is the i-th
bit of a basis index, most significant first; the base parameter vector is
``default_rng(seed).uniform(-pi, pi, 4p)``; every bound gate is
exp(-i x/2 P(x)P).
"""

from __future__ import annotations

import numpy as np

#: Interpolation matrices above this condition number count as singular
#: here; between ``AMBIGUOUS_COND`` and this the library's verdict is not
#: checked either way.
SINGULAR_COND = 1e12
AMBIGUOUS_COND = 1e10


def base_params(p: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, 4 * p)


# ---------------------------------------------------------------------------
# shift-rule interpolation


def interp_matrix(free_nodes, freqs, d: int) -> np.ndarray:
    """Sine matrix over the nodes (odd d) or [1 | cosine] over (0, nodes) (even d)."""
    x = np.asarray(free_nodes, dtype=float)
    w = np.asarray(freqs, dtype=float)
    if d % 2:
        return np.sin(np.outer(x, w))
    x = np.concatenate([[0.0], x])
    return np.hstack([np.ones((x.size, 1)), np.cos(np.outer(x, w))])


def rule_coefficients(free_nodes, freqs, d: int):
    """(b, condition number) of A^T b = rhs for the order-d rule."""
    w = np.asarray(freqs, dtype=float)
    a = interp_matrix(free_nodes, w, d)
    if d % 2:
        rhs = (-1.0) ** ((d - 1) // 2) * w**d
    else:
        rhs = (-1.0) ** (d // 2) * np.concatenate([[0.0], w**d])
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        return None, cond
    return np.linalg.solve(a.T, rhs), cond


def equidistant_free_nodes(r: int, d: int) -> np.ndarray:
    """Classical nodes for {1..r}: (2i-1)pi/(2r) (odd d) or i pi/r, i >= 1 (even d)."""
    i = np.arange(1, r + 1)
    return (2 * i - 1) * np.pi / (2 * r) if d % 2 else i * np.pi / r


# ---------------------------------------------------------------------------
# trigonometric test polynomial


def random_poly(freqs, rng):
    w = np.asarray(freqs, dtype=float)
    return rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, w.size), rng.uniform(-1.0, 1.0, w.size)


def poly_value(poly, freqs, x):
    a0, a, b = poly
    wx = np.multiply.outer(np.asarray(x, dtype=float), np.asarray(freqs, dtype=float))
    return a0 + np.cos(wx) @ a + np.sin(wx) @ b


def poly_first_derivative(poly, freqs, x) -> float:
    _, a, b = poly
    w = np.asarray(freqs, dtype=float)
    return float(np.sum(w * (-a * np.sin(w * x) + b * np.cos(w * x))))


# ---------------------------------------------------------------------------
# XXZ / HVA statevector by basis-index arithmetic


class HvaReference:
    """Batched statevectors of the depth-p HVA circuit and their XXZ energy.

    Gates act by permuting and re-signing amplitudes, never through the
    gate matrices the library builds.  Bond groups follow the documented
    layout: even bonds (2k, 2k+1) and odd bonds (2k+1, (2k+2) mod q) for
    k < q // 2.
    """

    def __init__(self, q: int, p: int, delta: float = 0.5):
        self.q, self.p, self.delta = q, p, delta
        self.idx = np.arange(1 << q)
        self.mask = [1 << (q - 1 - i) for i in range(q)]
        self.bit = [(self.idx >> (q - 1 - i)) & 1 for i in range(q)]
        half = q // 2
        self.even = [(2 * k, 2 * k + 1) for k in range(half)]
        self.odd = [(2 * k + 1, (2 * k + 2) % q) for k in range(half)]

    def _parity_sign(self, a: int, b: int) -> np.ndarray:
        return 1 - 2 * (self.bit[a] ^ self.bit[b])

    def states(self, thetas: np.ndarray) -> np.ndarray:
        """One state per row of ``thetas`` (shape (n, 4p)); result (n, 2**q)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        idx, m = self.idx, self.mask
        psi = np.zeros((thetas.shape[0], idx.size), dtype=complex)
        psi[:, 0] = 1.0
        for a in range(self.q):
            psi = psi[:, idx ^ m[a]]
        for a, b in self.even:
            sign = 1 - 2 * self.bit[a]
            psi = (psi[:, idx & ~m[a]] + sign * psi[:, idx | m[a]]) / np.sqrt(2.0)
            psi = np.where(self.bit[a] == 1, psi[:, idx ^ m[b]], psi)
        for layer in range(self.p):
            th, ph, be, ga = (thetas[:, 4 * layer + k][:, None] for k in range(4))
            for pauli, bonds, x in (("Z", self.odd, th), ("Y", self.odd, ph), ("X", self.odd, ph),
                                    ("Z", self.even, be), ("Y", self.even, ga), ("X", self.even, ga)):
                for a, b in bonds:
                    t = self._parity_sign(a, b)
                    if pauli == "Z":
                        pp = t * psi
                    elif pauli == "X":
                        pp = psi[:, idx ^ m[a] ^ m[b]]
                    else:
                        pp = -t * psi[:, idx ^ m[a] ^ m[b]]
                    psi = np.cos(0.5 * x) * psi - 1j * np.sin(0.5 * x) * pp
        return psi

    def energies(self, thetas) -> np.ndarray:
        psi = self.states(thetas)
        idx, m = self.idx, self.mask
        out = np.zeros(psi.shape[0])
        for i in range(self.q):
            j = (i + 1) % self.q
            t = self._parity_sign(i, j)
            flipped = psi[:, idx ^ m[i] ^ m[j]]
            xx = np.sum(np.conj(psi) * flipped, axis=1).real
            yy = np.sum(np.conj(psi) * (-t * flipped), axis=1).real
            zz = np.sum(np.abs(psi) ** 2 * t, axis=1)
            out += xx + yy + self.delta * zz
        return out

    def slice_spectrum(self, theta, j: int, n: int = 64):
        """Fourier coefficients c_k (k = -n/2+1 .. n/2-1) of x -> E(theta with theta_j = x)."""
        xs = 2 * np.pi * np.arange(n) / n
        thetas = np.repeat(np.asarray(theta, dtype=float)[None, :], n, axis=0)
        thetas[:, j] = xs
        c = np.fft.fft(self.energies(thetas)) / n
        k = np.fft.fftfreq(n, 1.0 / n)
        c[np.abs(k) == n // 2] = 0.0
        return c, k


def spectral_derivative(spectrum, x: float, d: int):
    """(f^(d)(x), scale) from Fourier coefficients; scale = max(1, sum |c_k| |k|^d)."""
    c, k = spectrum
    value = float(np.sum(c * (1j * k) ** d * np.exp(1j * k * x)).real)
    return value, max(1.0, float(np.sum(np.abs(c) * np.abs(k) ** d)))


def spectrum_frequencies(spectrum, rel_tol: float = 1e-8) -> list[int]:
    """Positive integer frequencies carrying more than ``rel_tol`` of the largest amplitude."""
    c, k = spectrum
    amps = np.abs(c)
    pos = k > 0
    top = float(np.max(amps[pos]))
    return sorted(int(kk) for kk, a in zip(k[pos], amps[pos]) if a > rel_tol * top)
