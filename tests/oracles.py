"""Independent test oracles: a Fornberg central difference, a least-squares fit,
a round-off bound for shift rules and a row-wise CSV formatter.

Neither oracle shares code with the code under test.  The central
difference (Fornberg, Math. Comp. 51, 699, 1988) checks shift rules without
the slice's Fourier components; the fit checks that a frequency set carries a
sampled signal, through its max residual; the row-wise formatter checks the
column-wise CSV writer.
"""

from functools import lru_cache

import numpy as np

from shiftrules.epsr import build_A
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
