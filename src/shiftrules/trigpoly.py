"""Exact trigonometric-polynomial cost model.

Every univariate cost slice of interest has the form

    f(x) = a0 + sum_k [ a_k * cos(Omega_k x) + b_k * sin(Omega_k x) ]

over a finite frequency set.  This module keeps that model exact: it serves
as the evaluation oracle, the exact-derivative reference and the synthetic
test-case generator against which the shift rules are validated, without any
quantum simulation in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .epsr import build_A_even, build_A_odd
from .spectra import FrequencySet

__all__ = [
    "TrigPoly",
    "random_trigpoly",
    "fit_from_samples",
    "central_difference",
]


@dataclass(frozen=True)
class TrigPoly:
    """a0 + sum_k [a_k cos(Omega_k x) + b_k sin(Omega_k x)].

    ``cos_coeffs`` holds a_1..a_r and ``sin_coeffs`` b_1..b_r, aligned with
    ``frequencies`` in ascending frequency order.
    """

    a0: float
    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...]
    frequencies: FrequencySet

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        r = self.frequencies.r
        if len(self.cos_coeffs) != r or len(self.sin_coeffs) != r:
            raise ValueError("coefficient arrays must match the number of frequencies")
        if not np.all(np.isfinite([self.a0, *self.cos_coeffs, *self.sin_coeffs])):
            raise ValueError("coefficients must be finite")

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """Value of the polynomial at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        w = self.frequencies.as_array()
        a = np.asarray(self.cos_coeffs)
        b = np.asarray(self.sin_coeffs)
        wx = np.multiply.outer(x, w)
        out = self.a0 + np.cos(wx) @ a + np.sin(wx) @ b
        return float(out) if out.ndim == 0 else out

    def derivative(self, d: int, x):
        """Exact d-th derivative at ``x``.

        Uses the 4-cycle of trigonometric derivatives:
        sin -> cos -> -sin -> -cos and cos -> -sin -> -cos -> sin.
        """
        if d < 0:
            raise ValueError("derivative order must be >= 0")
        if d == 0:
            return self.evaluate(x)
        x = np.asarray(x, dtype=float)
        w = self.frequencies.as_array()
        a = np.asarray(self.cos_coeffs)
        b = np.asarray(self.sin_coeffs)
        wx = np.multiply.outer(x, w)
        c, s = np.cos(wx), np.sin(wx)
        phase = d % 4
        if phase == 0:
            dcos, dsin = c, s
        elif phase == 1:
            dcos, dsin = -s, c
        elif phase == 2:
            dcos, dsin = -c, -s
        else:
            dcos, dsin = s, -c
        out = dcos @ (w**d * a) + dsin @ (w**d * b)
        return float(out) if out.ndim == 0 else out

    def odd_part(self, x):
        """(f(x) - f(-x)) / 2 = sum_k b_k sin(Omega_k x)."""
        x = np.asarray(x, dtype=float)
        wx = np.multiply.outer(x, self.frequencies.as_array())
        out = np.sin(wx) @ np.asarray(self.sin_coeffs)
        return float(out) if out.ndim == 0 else out

    def even_part(self, x):
        """(f(x) + f(-x)) / 2 = a0 + sum_k a_k cos(Omega_k x)."""
        x = np.asarray(x, dtype=float)
        wx = np.multiply.outer(x, self.frequencies.as_array())
        out = self.a0 + np.cos(wx) @ np.asarray(self.cos_coeffs)
        return float(out) if out.ndim == 0 else out


def random_trigpoly(fs: FrequencySet, seed) -> TrigPoly:
    """Polynomial with i.i.d. uniform[-1, 1] coefficients, reproducible per seed."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=2 * fs.r + 1)
    return TrigPoly(coeffs[0], tuple(coeffs[1 : fs.r + 1]), tuple(coeffs[fs.r + 1 :]), fs)


def fit_from_samples(fs: FrequencySet, xs, ys) -> TrigPoly:
    """The unique polynomial over ``fs`` through 2r+1 samples (x_i, y_i).

    Solves the joint odd/even interpolation system whose columns are the
    constant, cosine and sine basis functions.

    Raises:
        ValueError: wrong sample count, duplicate sample points, or a sample
            configuration that makes the interpolation matrix singular.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    n = 2 * fs.r + 1
    if xs.size != n or ys.size != n:
        raise ValueError(f"need exactly {n} samples for r={fs.r}, got {xs.size}")
    sx = np.sort(xs)
    if np.min(np.diff(sx)) < 1e-12 * max(1.0, float(np.max(np.abs(xs)))):
        raise ValueError("duplicate sample points make the interpolation system singular")
    m = np.hstack([build_A_even(xs, fs), build_A_odd(xs, fs)])
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"singular interpolation system (condition estimate {cond:.3e}); "
            "sample points must not be congruent modulo the basis symmetries"
        )
    z = np.linalg.solve(m, ys)
    resid = float(np.max(np.abs(m @ z - ys)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(ys)))):
        raise ValueError(f"interpolation solve left residual {resid:.3e}")
    return TrigPoly(z[0], tuple(z[1 : fs.r + 1]), tuple(z[fs.r + 1 :]), fs)


def fit_least_squares(fs: FrequencySet, xs, ys) -> tuple[TrigPoly, float]:
    """Least-squares fit on an overdetermined sample set.

    Returns the fitted polynomial and the max absolute residual at the
    samples; the residual is the evidence for whether ``fs`` actually carries
    the sampled signal.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size < 2 * fs.r + 1:
        raise ValueError("need at least 2r+1 samples")
    m = np.hstack([build_A_even(xs, fs), build_A_odd(xs, fs)])
    z, *_ = np.linalg.lstsq(m, ys, rcond=None)
    resid = float(np.max(np.abs(m @ z - ys)))
    return TrigPoly(z[0], tuple(z[1 : fs.r + 1]), tuple(z[fs.r + 1 :]), fs), resid


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
    """(offsets, weights) of the central stencil for f^(d) with step h; write-once, read-only."""
    offsets = np.arange(-_HALF_WIDTH[d], _HALF_WIDTH[d] + 1) * h
    weights = _fornberg_weights(0.0, offsets, d)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def central_difference(f, x: float, d: int, h: float = 1e-2) -> float:
    """Central finite-difference estimate of f^(d)(x), 8th-order accurate.

    Used only as an independent reference oracle, never as a production
    derivative estimator; the stencil is kept higher-order than any claim
    checked against it.  ``f`` is called once, with the 1-D array of all
    stencil points, and must return the array of values at those points.
    """
    if d not in _HALF_WIDTH:
        raise ValueError("central_difference supports d = 1..6")
    offsets, weights = _stencil(d, h)
    return float(weights @ np.asarray(f(x + offsets), dtype=float))
