"""Shift rules for arbitrary-order derivatives of trigonometric cost functions.

A derivative of order d is recovered exactly as a linear combination of cost
evaluations at shifted arguments.  The combination coefficients come from a
small trigonometric interpolation system: for odd d the matrix has entries
sin(Omega_k x_i) over r freely chosen nodes, for even d it gains a leading
column of ones and uses cos(Omega_k x_i) over r+1 nodes.  Any node set works
as long as that matrix is nonsingular, which is what gives room to optimize
the nodes for derivative variance (see :mod:`shiftrules.variance`).

This module builds that matrix for either parity with one builder,
:func:`build_A` (the node derivatives of one parity's matrix are read off
the other's), solves for coefficients with diagnostics (one node set at a
time, or a whole stack of node sets at once), provides the classical
fixed-node closed forms for first and second derivatives, evaluates the
determinant factorizations used to certify node validity under integer
frequencies, and applies rules to the evaluators whose frequencies they cover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import DEFAULT_TOL, FrequencySet, _json_get, detect_equidistant

__all__ = [
    "ShiftNodes",
    "PSRRule",
    "RuleDiagnostics",
    "SingularNodesError",
    "build_A",
    "rhs_vector",
    "solve_coefficients",
    "solve_coefficients_stacked",
    "make_rule",
    "apply_rule",
    "evaluation_count",
    "equidistant_nodes",
    "scaled_equidistant_nodes",
    "equidistant_coefficients_closed_form",
    "determinant_closed_form",
    "rule_to_json",
    "rule_from_json",
]

#: Nodes whose interpolation matrix exceeds this condition estimate are
#: rejected: beyond it, coefficient error swamps double-precision derivative
#: accuracy targets.
CONDITION_LIMIT = 1e12

#: Safety factor of the SVD-free conditioning screen in
#: :func:`solve_coefficients_stacked`: a row is certified when its
#: singular-value bounds pass :func:`_conditioning` with sigma_min divided
#: by this factor, so a certified row has condition number <= 2.5e11.  The
#: factor absorbs the relative round-off of the LU determinant and of the
#: SVD the row would otherwise get; each is of order m**2 * kappa * eps, at
#: most 0.04 for m <= 25 at that kappa.  Rows that miss the screen go to
#: the SVD, so a larger factor costs SVDs, never verdicts.
_SCREEN_MARGIN = 4.0

#: Even-order rules merge a node's two shifts +-x into one evaluation when
#: every Omega_k x / pi is an integer within this tolerance.
_MERGE_TOL = 1e-12

#: Relative error of a realised shift (xbar + phi) - xbar against phi,
#: over max(1, max |phi|), beyond which :func:`_shifted_points` refuses xbar.
_SHIFT_RTOL = 1e-9

#: Relative tolerance of :func:`rule_from_json` against the re-solved rule.
_JSON_RTOL = 1e-9


def _check_parity(parity: str) -> str:
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return parity


@dataclass(frozen=True)
class ShiftNodes:
    """Interpolation nodes of a shift rule.

    Odd-parity rules use r nodes x_1..x_r, even-parity rules r+1 nodes
    x_0..x_r.  Validity (nonsingularity of the interpolation matrix) is
    checked when coefficients are solved, not here.
    """

    parity: str
    values: tuple[float, ...]

    def __post_init__(self):
        _check_parity(self.parity)
        # + 0.0 stores the node -0 as 0, so equal node sets hold equal bits
        vals = tuple(float(v) + 0.0 for v in self.values)
        if len(vals) == 0:
            raise ValueError("node vector must not be empty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodes must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def r(self) -> int:
        """Frequency count this node vector is sized for."""
        return len(self.values) if self.parity == "odd" else len(self.values) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class RuleDiagnostics:
    determinant: float
    condition_estimate: float
    nonsingular: bool


class SingularNodesError(ValueError):
    """Raised when a node set fails the conditioning check."""

    def __init__(self, message: str, diagnostics: RuleDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class PSRRule:
    """A solved shift rule of order d.

    ``solve_coeffs`` is the raw solution b of the interpolation system; the
    expanded form lists one coefficient gamma_mu per distinct evaluation
    shift phi_mu, with the +-x merges of :func:`_expand` already applied, so that

        f^(d)(x) = sum_mu gamma_mu * f(x + phi_mu).
    """

    order: int
    nodes: ShiftNodes
    solve_coeffs: tuple[float, ...]
    expanded_shifts: tuple[float, ...]
    expanded_coeffs: tuple[float, ...]
    frequencies: FrequencySet
    diagnostics: RuleDiagnostics | None = None

    def __post_init__(self):
        if ("odd" if self.order % 2 else "even") != self.parity:
            raise ValueError(f"order {self.order} does not match parity {self.parity!r}")
        if len(self.expanded_shifts) != len(self.expanded_coeffs):
            raise ValueError("expanded shifts and coefficients must align")

    @property
    def parity(self) -> str:
        """The nodes' parity, which must be the order's."""
        return self.nodes.parity


def _node_array(nodes) -> np.ndarray:
    return nodes.as_array() if isinstance(nodes, ShiftNodes) else np.asarray(nodes, dtype=float)


@lru_cache(maxsize=64)
def _frequency_row(fs: FrequencySet) -> np.ndarray:
    """``fs.as_array()``, read-only, built once per frequency set."""
    w = fs.as_array()
    w.setflags(write=False)
    return w


def build_A(nodes, fs: FrequencySet, parity: str) -> np.ndarray:
    """Interpolation matrix: sin(Omega_k x_i) for odd parity, [1 | cos(Omega_k x_i)] for even.

    Rows follow node order.  A stack of node vectors of shape (..., m) gives
    a stack of matrices of shape (..., m, r) (odd) or (..., m, r+1) (even).
    The node derivatives of one parity's matrix are read off the other's:
    Omega_k cos(Omega_k x_i) and -Omega_k sin(Omega_k x_i).
    """
    x = _node_array(nodes)
    wx = np.multiply.outer(x, _frequency_row(fs))
    if _check_parity(parity) == "odd":
        return np.sin(wx)
    return np.concatenate([np.ones(x.shape + (1,)), np.cos(wx)], axis=-1)


def _top_power(fs: FrequencySet, d: int) -> float:
    """Omega_max^d, which bounds every entry of :func:`rhs_vector`; ValueError naming d and Omega_max on overflow."""
    try:
        return fs.frequencies[-1] ** d
    except OverflowError:
        raise ValueError(f"order d = {d} overflows: Omega_max^d with Omega_max = {fs.frequencies[-1]!r} "
                         "exceeds the double range") from None


def rhs_vector(d: int, fs: FrequencySet, parity: str) -> np.ndarray:
    """Right-hand side of the coefficient system for order d.

    Odd parity: (-1)^((d-1)/2) * [Omega_1^d, ..., Omega_r^d].
    Even parity: (-1)^(d/2) * [delta_{d,0}, Omega_1^d, ..., Omega_r^d].
    Raises ValueError where :func:`_top_power` does.
    """
    _check_parity(parity)
    if d < 0:
        raise ValueError("order must be >= 0")
    _top_power(fs, d)
    w = fs.as_array()
    if parity == "odd":
        if d % 2 != 1:
            raise ValueError(f"order {d} has no odd-parity rule")
        return (-1.0) ** ((d - 1) // 2) * w**d
    if d % 2 != 0:
        raise ValueError(f"order {d} has no even-parity rule")
    lead = 1.0 if d == 0 else 0.0
    return (-1.0) ** (d // 2) * np.concatenate([[lead], w**d])


@lru_cache(maxsize=64)
def _rhs_column(fs: FrequencySet, d: int) -> np.ndarray:
    """:func:`rhs_vector` of order d as a read-only column, built and checked once per (fs, d)."""
    rhs = rhs_vector(d, fs, "odd" if d % 2 else "even")[:, None]
    rhs.setflags(write=False)
    return rhs


def _conditioning(smax: np.ndarray, smin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition estimates and the nonsingularity test from singular-value bounds.

    ``smax`` and ``smin`` are the largest and smallest singular values (or
    an upper and a lower bound on them) of one matrix or of a stack.  The
    condition ratio alone misses uniformly tiny matrices (e.g. the 1x1
    [sin pi]), so the smallest singular value is also held to an absolute
    floor relative to the entry scale.  A matrix that passes has
    |det| = prod(sv) > 1e-12**m, nonzero in double precision for m < 25, so
    the determinant is reported in :class:`RuleDiagnostics` but not tested.
    The test only gets harder as smax grows or smin shrinks, so an upper
    bound on smax and a lower bound on smin that pass certify the matrix.
    Both callers run it under one ``errstate`` that ignores divide, over and
    invalid: smin may be 0 or tiny.
    """
    cond = np.where(smin == 0.0, np.inf, smax / smin)
    # an inf or NaN cond compares False
    nonsingular = (cond <= CONDITION_LIMIT) & (smin > 1e-12 * np.maximum(1.0, smax))
    return cond, nonsingular


def _svd_conditioning(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sv = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _conditioning(sv[..., 0], sv[..., -1])


def _diagnose(a: np.ndarray) -> RuleDiagnostics:
    cond, nonsingular = _svd_conditioning(a)
    return RuleDiagnostics(float(np.linalg.det(a)), float(cond), bool(nonsingular))


def solve_coefficients(nodes: ShiftNodes, fs: FrequencySet, d: int) -> tuple[np.ndarray, RuleDiagnostics]:
    """Coefficient vector b with A(x)^T b = rhs, plus conditioning diagnostics.

    Raises:
        SingularNodesError: when the interpolation matrix is singular or its
            condition estimate exceeds ``CONDITION_LIMIT``.
        ValueError: when node parity does not match the parity of d.
    """
    parity = "odd" if d % 2 else "even"
    if nodes.parity != parity:
        raise ValueError(f"order {d} needs {parity} nodes, got {nodes.parity}")
    if nodes.r != fs.r:
        raise ValueError(f"node count sized for r={nodes.r}, frequency set has r={fs.r}")
    a = build_A(nodes, fs, parity)
    diag = _diagnose(a)
    if not diag.nonsingular:
        raise SingularNodesError(
            f"singular node set (determinant {diag.determinant:.3e}, "
            f"condition estimate {diag.condition_estimate:.3e})",
            diag,
        )
    b = np.linalg.solve(a.T, rhs_vector(d, fs, parity))
    return b, diag


def solve_coefficients_stacked(nodes, fs: FrequencySet, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors for a stack of node vectors, shape (n, m), at once.

    One broadcast builds every interpolation matrix and one batched solve
    handles the rows that pass the conditioning test of
    :func:`solve_coefficients`.  The test runs as a screen: every row first
    gets the bounds sigma_max <= s = ||A||_F and, since |det A| is the
    product of the singular values, sigma_min >= |det A| / s**(m-1) (one
    einsum and one batched LU determinant).  A row whose bounds pass
    :func:`_conditioning` with sigma_min shrunk by ``_SCREEN_MARGIN`` is
    certified without an SVD; only the other rows go through the SVD and
    the same predicate; when every row is certified, the whole stack is
    solved as it is.  Returns ``(b, nonsingular)``: b has shape (n, m)
    with NaN rows where ``nonsingular`` is False, so a row is rejected here
    exactly when :func:`solve_coefficients` raises SingularNodesError for it.

    A DE generation of :func:`~shiftrules.variance.optimize_shifts_global`
    makes its 4 draws (5 when a mutant left the box), whose order is part of
    the seeded-output contract, and then one call here, which draws nothing.
    The frequency row and the right-hand-side column are built and checked
    once per (fs, d) and cached read-only, and the screen runs under one
    ``errstate``, so a call pays for its stack's matrices only.
    """
    x = np.asarray(nodes, dtype=float)
    parity = "odd" if d % 2 else "even"
    rhs = _rhs_column(fs, d)
    m = rhs.shape[0]
    if x.ndim != 2 or x.shape[1] != m:
        raise ValueError(f"order {d} with r={fs.r} needs a node stack of shape (n, {m}), got {x.shape}")
    a = build_A(x, fs, parity)
    s = np.sqrt(np.einsum("nij,nij->n", a, a))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, nonsingular = _conditioning(s, np.abs(np.linalg.det(a)) / s ** (m - 1) / _SCREEN_MARGIN)
    at = np.swapaxes(a, -1, -2)
    if nonsingular.all():
        return np.linalg.solve(at, rhs)[..., 0], nonsingular
    unsure = ~nonsingular
    _, nonsingular[unsure] = _svd_conditioning(a[unsure])
    b = np.full(x.shape, np.nan)
    if np.any(nonsingular):
        b[nonsingular] = np.linalg.solve(at[nonsingular], rhs)[..., 0]
    return b, nonsingular


def _expand(parity: str, x: np.ndarray, b: np.ndarray, fs: FrequencySet) -> tuple[tuple, tuple]:
    """Expanded (shift, coefficient) terms, with +-x merged where the slice's period allows.

    An even-parity node x whose Omega_k x / pi is an integer (within
    ``_MERGE_TOL``) for every frequency Omega_k has f(xbar + x) =
    f(xbar - x) for every polynomial over the set, so its two shifts merge
    into one: x = 0 always, x = pi for integer sets, and x = pi / Omega for
    {Omega, 2 Omega, ...}.
    """
    shifts: list[float] = []
    coeffs: list[float] = []
    if parity == "odd":
        for xi, bi in zip(x, b):
            shifts += [float(xi), float(-xi)]
            coeffs += [0.5 * float(bi), -0.5 * float(bi)]
        return tuple(shifts), tuple(coeffs)
    turns = np.outer(x, fs.as_array()) / math.pi
    merged = np.all(np.abs(turns - np.round(turns)) <= _MERGE_TOL, axis=1)
    for xi, bi, one in zip(x, b, merged):
        if one:
            shifts.append(0.0 if abs(xi) <= _MERGE_TOL else float(xi))
            coeffs.append(float(bi))
        else:
            shifts += [float(xi), float(-xi)]
            coeffs += [0.5 * float(bi), 0.5 * float(bi)]
    return tuple(shifts), tuple(coeffs)


@lru_cache(maxsize=256, typed=True)
def make_rule(nodes: ShiftNodes, fs: FrequencySet, d: int) -> PSRRule:
    """Solve for coefficients at the given nodes and package the full rule.

    Memoised per (nodes, frequencies, order) and the order's type, like :func:`_rhs_column`; singular
    nodes raise each time.
    """
    b, diag = solve_coefficients(nodes, fs, d)
    shifts, coeffs = _expand(nodes.parity, nodes.as_array(), b, fs)
    return PSRRule(
        order=d,
        nodes=nodes,
        solve_coeffs=tuple(float(v) for v in b),
        expanded_shifts=shifts,
        expanded_coeffs=coeffs,
        frequencies=fs,
        diagnostics=diag,
    )


def _check_coverage(rule: PSRRule, evaluator) -> None:
    """ValueError naming both sets unless each of the evaluator's ``frequencies`` lies within relative
    ``DEFAULT_TOL`` of a rule frequency.  An evaluator without them passes, and so does a constant
    :class:`~shiftrules.qsim.CostSlice`, whose ``frequencies`` raise ValueError: it has none to cover."""
    try:
        fs = getattr(evaluator, "frequencies", None)
    except ValueError:
        return
    have = rule.frequencies.frequencies
    if fs is not None and not all(any(abs(w - h) <= DEFAULT_TOL * h for h in have) for w in fs.frequencies):
        raise ValueError(f"rule frequencies {have} do not cover the evaluator's frequencies {fs.frequencies}")


def _shifted_points(rule: PSRRule, xbar: float) -> np.ndarray:
    """The evaluation points xbar + phi_mu of ``rule``, in rule order.

    Raises ValueError naming xbar when xbar is not finite or a realised
    shift (xbar + phi_mu) - xbar misses phi_mu by more than ``_SHIFT_RTOL`` *
    max(1, max |phi|): there the rounding of xbar + phi_mu would apply the
    rule at shifts other than its own (at xbar = 1e17 every point rounds to
    xbar).
    """
    phi = np.asarray(rule.expanded_shifts, dtype=float)
    points = xbar + phi
    miss = np.abs(points - xbar - phi).max() if math.isfinite(xbar) else math.inf
    if not miss <= _SHIFT_RTOL * max(1.0, np.abs(phi).max()):
        raise ValueError(f"xbar = {xbar!r} rounds the rule's shifts away: xbar + phi - xbar misses phi "
                         f"by more than {_SHIFT_RTOL:g} relative; choose an xbar of smaller magnitude")
    return points


def apply_rule(rule: PSRRule, evaluator, xbar: float) -> float:
    """sum_mu gamma_mu * evaluator(xbar + phi_mu).

    The evaluator is called exactly once, with the 1-D array of all shifted
    points ``xbar + phi_mu`` in rule order, and must return the array of
    values at those points (numpy ufuncs, :class:`~shiftrules.trigpoly.TrigPoly`
    and :class:`~shiftrules.qsim.CostSlice` all do).  A rule that does not
    cover the evaluator's frequencies, or an xbar that rounds its shifts
    away (:func:`_shifted_points`), raises ValueError before the call.
    """
    _check_coverage(rule, evaluator)
    points = _shifted_points(rule, xbar)
    return float(np.asarray(rule.expanded_coeffs) @ np.asarray(evaluator(points), dtype=float))


def evaluation_count(rule: PSRRule) -> int:
    """Distinct evaluator calls the rule performs (after the +-x merges of :func:`_expand`)."""
    return len(rule.expanded_shifts)


def equidistant_nodes(r: int, parity: str) -> ShiftNodes:
    """The classical fixed nodes for integer frequencies {1..r}.

    Odd parity: x_i = pi/(2r) + (i-1) pi/r for i = 1..r.
    Even parity: x_i = i pi/r for i = 0..r.
    """
    _check_parity(parity)
    if r < 1:
        raise ValueError("r must be >= 1")
    if parity == "odd":
        vals = tuple(math.pi / (2 * r) + (i - 1) * math.pi / r for i in range(1, r + 1))
    else:
        vals = tuple(i * math.pi / r for i in range(r + 1))
    return ShiftNodes(parity, vals)


@lru_cache(maxsize=64)
def scaled_equidistant_nodes(fs: FrequencySet, parity: str) -> ShiftNodes:
    """The equidistant nodes of {1..r} fitted to ``fs``, the first try of every node choice.

    Divided by Omega for a set {Omega, 2 Omega, ..., r Omega}, where
    A(x / Omega) is A(x) for {1..r}: nonsingular.  Otherwise scaled by
    r / Omega_max (the unscaled pattern is singular for {1, 2, 4}): possibly
    singular, and beyond pi when Omega_max < r.
    """
    x = equidistant_nodes(fs.r, parity).as_array()
    step = detect_equidistant(fs)
    return ShiftNodes(parity, tuple(x / step if step is not None else x * (fs.r / fs.frequencies[-1])))


def equidistant_coefficients_closed_form(r: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form expanded rule (gamma_mu, phi_mu) at the equidistant nodes.

    First order: 2r shifts x_i = pi/(2r) + (i-1) pi/r, i = 1..2r, with
    coefficients (-1)^(i-1) / (4 r sin^2(x_i / 2)).

    Second order: a center term -(2r^2+1)/6 at shift 0 plus 2r-1 shifts
    x_i = i pi/r with coefficients (-1)^(i-1) / (2 sin^2(x_i / 2)).

    Returns (coefficients, shifts).  Requires integer frequencies {1..r}.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if d == 1:
        i = np.arange(1, 2 * r + 1)
        x = np.pi / (2 * r) + (i - 1) * np.pi / r
        c = (-1.0) ** (i - 1) / (4 * r * np.sin(x / 2) ** 2)
        return c, x
    if d == 2:
        i = np.arange(1, 2 * r)
        x = i * np.pi / r
        c = (-1.0) ** (i - 1) / (2 * np.sin(x / 2) ** 2)
        center = -(2 * r**2 + 1) / 6.0
        return np.concatenate([[center], c]), np.concatenate([[0.0], x])
    raise ValueError("closed form only for d <= 2; use solve_coefficients")


def determinant_closed_form(nodes: ShiftNodes, fs: FrequencySet) -> float:
    """Product-form determinant of the interpolation matrix for Omega_k = k.

    Odd parity:  (prod_i sin x_i) * (prod_{i<j} (cos x_j - cos x_i)) * 2^(r(r-1)/2).
    Even parity: (prod_{i<j} (cos x_j - cos x_i)) * 2^(r(r-1)/2) over all r+1 nodes.

    The factorization reads off the singularity conditions directly: odd
    rules fail iff some x_i lies in pi*Z or two cosines coincide, even rules
    fail iff two cosines coincide.
    """
    if not fs.is_consecutive_integers():
        raise ValueError("determinant closed form requires frequencies {1, ..., r}")
    x = nodes.as_array()
    r = fs.r
    cos = np.cos(x)
    vandermonde = 1.0
    for i in range(x.size):
        for j in range(i + 1, x.size):
            vandermonde *= cos[j] - cos[i]
    power = 2.0 ** (r * (r - 1) // 2)
    if nodes.parity == "odd":
        return float(np.prod(np.sin(x)) * vandermonde * power)
    return float(vandermonde * power)


def rule_to_json(rule: PSRRule) -> str:
    """Serialize a rule to the interchange JSON document (full double precision)."""
    doc = {
        "order": rule.order,
        "parity": rule.parity,
        "frequencies": rule.frequencies.frequencies,
        "nodes": rule.nodes.values,
        "b": rule.solve_coeffs,
        "expanded": {"phi": rule.expanded_shifts, "gamma": rule.expanded_coeffs},
    }
    return json.dumps(doc, indent=2)


def rule_from_json(text: str) -> PSRRule:
    """Inverse of :func:`rule_to_json`, checked against a fresh solve.

    A key without its JSON type (``order`` an int, not a bool; lists of
    numbers) raises ValueError naming it.  The rule is re-solved from the
    document's nodes, frequencies and order; stored ``b`` or expanded terms
    that differ from it by more than ``_JSON_RTOL`` of their largest entry
    raise ValueError, else the re-solved rule, with diagnostics, is returned.
    """
    doc = json.loads(text)
    expanded = _json_get(doc, "expanded", (dict,), "rule document")
    lists = {key: _json_get(expanded if key in ("phi", "gamma") else doc, key, (list,), "rule document")
             for key in ("nodes", "frequencies", "b", "phi", "gamma")}
    for key, values in lists.items():
        if any(type(v) not in (int, float) for v in values):
            raise ValueError(f"rule document key {key!r} must hold numbers only, not {values!r}")
    rule = make_rule(ShiftNodes(_json_get(doc, "parity", (str,), "rule document"), tuple(lists["nodes"])),
                     FrequencySet(tuple(lists["frequencies"])), _json_get(doc, "order", (int,), "rule document"))
    solved = {"b": rule.solve_coeffs, "phi": rule.expanded_shifts, "gamma": rule.expanded_coeffs}
    for name, want in solved.items():
        want = np.asarray(want)
        got = np.asarray(lists[name], dtype=float)
        tol = _JSON_RTOL * float(np.max(np.abs(want)))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
            raise ValueError(f"rule document {name!r} does not match the rule re-solved from "
                             f"its nodes, frequencies and order {rule.order}")
    return rule
