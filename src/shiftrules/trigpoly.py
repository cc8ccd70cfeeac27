"""Exact trigonometric-polynomial cost model.

Every univariate cost slice of interest has the form

    f(x) = a0 + sum_k [ a_k * cos(Omega_k x) + b_k * sin(Omega_k x) ]

over a finite frequency set.  This module keeps that model exact: it serves
as the evaluation oracle, the exact-derivative reference and the synthetic
test-case generator against which the shift rules are validated, without any
quantum simulation in the loop.  Circuit slices have their own exact
derivative, :meth:`shiftrules.qsim.CostSlice.derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import FrequencySet

__all__ = ["TrigPoly", "random_trigpoly"]


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
        return self.derivative(0, x)

    def derivative(self, d: int, x):
        """Exact d-th derivative at ``x``; order 0 is the value.

        Uses the 4-cycle of trigonometric derivatives:
        cos -> -sin -> -cos -> sin and sin -> cos -> -sin -> -cos.
        """
        if d < 0:
            raise ValueError("derivative order must be >= 0")
        x = np.asarray(x, dtype=float)
        w = self.frequencies.as_array()
        a = np.asarray(self.cos_coeffs)
        b = np.asarray(self.sin_coeffs)
        wx = np.multiply.outer(x, w)
        c, s = np.cos(wx), np.sin(wx)
        cycle = (c, -s, -c, s)
        # -0.0 + t is t bit for bit, so only order 0 adds anything before the sums
        lead = self.a0 if d == 0 else -0.0
        out = lead + cycle[d % 4] @ (w**d * a) + cycle[(d + 3) % 4] @ (w**d * b)
        return float(out) if out.ndim == 0 else out


def random_trigpoly(fs: FrequencySet, seed) -> TrigPoly:
    """Polynomial with i.i.d. uniform[-1, 1] coefficients, reproducible per seed."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=2 * fs.r + 1)
    return TrigPoly(coeffs[0], tuple(coeffs[1 : fs.r + 1]), tuple(coeffs[fs.r + 1 :]), fs)
