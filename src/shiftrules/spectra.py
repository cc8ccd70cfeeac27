"""Frequency sets of Hermitian generators.

A rotation-like gate exp(i*H*x) turns the measured cost into a trigonometric
polynomial whose frequencies are the positive differences between eigenvalues
of H.  This module extracts those frequency sets from spectra and classifies
equidistant ones {Omega, 2 Omega, ..., r Omega}.

Eigenvalues may come in any order; circuit cost slices read their frequency
sets off their Fourier components instead (see
:attr:`shiftrules.qsim.CostSlice.frequencies`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrequencySet",
    "integer_frequencies",
    "positive_difference_frequencies",
    "detect_equidistant",
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
    The read-only array that validates the set is kept for :meth:`as_array`;
    equality, hash and repr are those of the tuple.
    """

    frequencies: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

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
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    @property
    def r(self) -> int:
        return len(self.frequencies)

    def as_array(self) -> np.ndarray:
        """The frequencies as one read-only float array, the same object on every call."""
        return self._array

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
        ValueError: on a ``dedup_tol`` that is not finite and >= 0, an empty
            spectrum, an eigenvalue spread max - min beyond the double range,
            when all eigenvalues coincide ("constant generator, no
            frequencies"), or when a ``dedup_tol`` above ``DEFAULT_TOL`` cuts
            at half the smallest gap it keeps or more, or keeps no gap of a
            spectrum that has one.
    """
    if not 0.0 <= dedup_tol < math.inf:
        raise ValueError(f"dedup_tol must be finite and >= 0, not {dedup_tol!r}")
    lam = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    # Python floats: the difference overflows to inf without a warning
    if float(lam[-1]) - float(lam[0]) == math.inf:
        raise ValueError(f"eigenvalue spread {float(lam[-1])!r} - ({float(lam[0])!r}) "
                         "overflows the double range")
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        scale = 1.0
    cut = dedup_tol * scale

    diffs = np.abs(lam[None, :] - lam[:, None])[np.triu_indices(lam.size, k=1)]
    diffs = np.sort(diffs[diffs > cut])
    if diffs.size == 0:
        if dedup_tol > DEFAULT_TOL and lam[-1] > lam[0]:
            raise ValueError(f"dedup_tol {dedup_tol!r} cuts at {cut!r}, at or above every eigenvalue gap: "
                             "no frequencies")
        raise ValueError("constant generator, no frequencies")

    clusters = np.split(diffs, np.flatnonzero(np.diff(diffs) > cut) + 1)
    fs = FrequencySet(tuple(float(np.mean(c)) for c in clusters))
    # above the default, such a cut may have dropped a genuine gap within cut of the smallest one it keeps
    if dedup_tol > DEFAULT_TOL and cut >= 0.5 * diffs[0]:
        raise ValueError(f"dedup_tol {dedup_tol!r} cuts at {cut!r}, at least half the gap {float(diffs[0])!r} "
                         f"that starts the smallest frequency {fs.frequencies[0]!r}: it cannot tell that "
                         "frequency from a degenerate gap")
    return fs


def detect_equidistant(fs: FrequencySet) -> float | None:
    """Step Omega with Omega_k = k * Omega (to ``DEFAULT_TOL``, relative), or None if the set is not of that form."""
    arr = fs.as_array()
    step = arr[0]
    k = np.arange(1, fs.r + 1)
    if np.max(np.abs(arr / step - k)) <= DEFAULT_TOL:
        return float(step)
    return None


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
