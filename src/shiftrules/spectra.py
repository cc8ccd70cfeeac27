"""Frequency sets of Hermitian generators.

A rotation-like gate exp(i*H*x) turns the measured cost into a trigonometric
polynomial whose frequencies are the positive differences between eigenvalues
of H.  This module extracts those frequency sets from spectra, classifies
equidistant ones and rescales them to the canonical integer form {1, ..., r}.

Eigenvalues are expected as plain sorted sequences; circuit cost slices read
their frequency sets off their Fourier components instead (see
:func:`shiftrules.qsim.slice_frequencies`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencySet",
    "integer_frequencies",
    "positive_difference_frequencies",
    "detect_equidistant",
    "rescale_to_integer",
]

#: Relative tolerance used to deduplicate eigenvalue gaps and to certify
#: equidistance.  Double-precision eigensolvers resolve desk-scale Hermitian
#: matrices to ~1e-12, so 1e-9 separates genuine gaps from round-off.
DEFAULT_TOL = 1e-9

#: Absolute tolerance of the integer tests of a frequency set: frequencies
#: snapped to integers, or built from them, are integral to this.
_INTEGER_TOL = 1e-12


@dataclass(frozen=True)
class FrequencySet:
    """Strictly increasing positive frequencies of a univariate cost slice.

    Attributes:
        frequencies: the sorted positive frequencies (Omega_1 < ... < Omega_r).

    :func:`detect_equidistant` tells whether the set is {Omega, 2 Omega, ...}.
    """

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if len(freqs) == 0:
            raise ValueError("frequency set must not be empty")
        arr = np.asarray(freqs)
        if not np.all(np.isfinite(arr)):
            raise ValueError("frequencies must be finite")
        if arr[0] <= 0.0 or np.any(np.diff(arr) <= 0.0):
            raise ValueError("frequencies must be strictly increasing and positive")

    @property
    def r(self) -> int:
        return len(self.frequencies)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.frequencies, dtype=float)

    def is_consecutive_integers(self) -> bool:
        """True when the set is exactly {1, 2, ..., r} within ``_INTEGER_TOL``."""
        k = np.arange(1, self.r + 1)
        return bool(np.max(np.abs(self.as_array() - k)) <= _INTEGER_TOL)

    def is_all_integer(self) -> bool:
        """True when every frequency is a positive integer within ``_INTEGER_TOL`` (2*pi periodicity)."""
        arr = self.as_array()
        return bool(np.max(np.abs(arr - np.round(arr))) <= _INTEGER_TOL)


def integer_frequencies(r: int) -> FrequencySet:
    """The canonical integer set {1, ..., r}."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return FrequencySet(tuple(float(k) for k in range(1, r + 1)))


def positive_difference_frequencies(eigenvalues, dedup_tol: float = DEFAULT_TOL) -> FrequencySet:
    """All distinct positive differences between pairs of eigenvalues.

    Sorted gaps chain into one cluster while each lies within ``cut =
    dedup_tol * scale`` of the previous one (``scale``: the largest eigenvalue
    magnitude, or 1 if all are zero); each cluster becomes its mean.  A
    cluster may span more than ``cut``: [-1, -0.25, 0, 5e-10, 0.75 + 1e-9, 1]
    has gaps 1 - 5e-10 .. 1 + 1e-9 that merge into 1.0000000002.  Capping the
    width would split it into frequencies closer than ``cut``, which make a
    near-singular node system.

    Raises:
        ValueError: on an empty spectrum, or when all eigenvalues coincide
            ("constant generator, no frequencies").
    """
    if dedup_tol < 0:
        raise ValueError("dedup_tol must be >= 0")
    lam = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        scale = 1.0
    cut = dedup_tol * scale

    diffs = np.abs(lam[None, :] - lam[:, None])[np.triu_indices(lam.size, k=1)]
    diffs = np.sort(diffs[diffs > cut])
    if diffs.size == 0:
        raise ValueError("constant generator, no frequencies")

    # Greedy clustering of near-identical gaps; each cluster becomes its mean.
    merged = []
    start = 0
    for i in range(1, diffs.size + 1):
        if i == diffs.size or diffs[i] - diffs[i - 1] > cut:
            merged.append(float(np.mean(diffs[start:i])))
            start = i
    return FrequencySet(tuple(merged))


def detect_equidistant(fs: FrequencySet) -> float | None:
    """Step Omega with Omega_k = k * Omega (to ``DEFAULT_TOL``, relative), or None if the set is not of that form."""
    arr = fs.as_array()
    step = arr[0]
    k = np.arange(1, fs.r + 1)
    if np.max(np.abs(arr / step - k)) <= DEFAULT_TOL:
        return float(step)
    return None


def rescale_to_integer(fs: FrequencySet) -> tuple[FrequencySet, float]:
    """Rescale an equidistant set {Omega, 2*Omega, ...} to {1, ..., r}.

    Returns the integer frequency set together with the scale factor Omega.
    The caller contract: if f has frequencies k*Omega then g(x) = f(x/Omega)
    has the integer set, and derivatives transport as
    f^(d)(x) = Omega**d * g^(d)(Omega * x).

    Raises:
        ValueError: when the input set is not equidistant.
    """
    step = detect_equidistant(fs)
    if step is None:
        raise ValueError("frequency set is not equidistant; cannot rescale to integers")
    return integer_frequencies(fs.r), step
