"""Derivative-variance objectives, shot allocation and node optimization.

With finite measurement shots, a shift-rule derivative estimate over m
nodes has variance (sigma^2 / N_total times) m * ||b||_2^2 under equal shots
per node (each split evenly over the node's shifts +-x_i) and ||b||_1^2
when shots are split proportionally to the coefficient magnitudes; the
proportional split is optimal among all allocations (Cauchy-Schwarz).
Node selection therefore minimizes F_unif = ||b||_2^2 / 2 or F_wgt = ||b||_1
over the node box.  This module provides both objectives (per node set and
over stacks of node sets), their analytic (sub)gradients, the weak-duality
lower bound Omega_max^d of F_wgt, a local descent whose every iteration
tries a Newton step (Hessian by central differences of the analytic
gradient) before a (sub)gradient step, each on one halving step ladder, a
differential-evolution global search that scores each generation in one
stacked solve, stops a weighted search once it or a short polish of its
best member is certified within a relative gap of the bound and otherwise
polishes its best member with the local descent, shot-allocation helpers
and the optimality certificate for the classical equidistant nodes under
the weighted scheme.

A node search scores through the stacked solver only: a DE generation, the
probes of a Newton step and the rungs of a step ladder are one stacked call
each.  Inside a search, the scalar path with its SVD diagnostics
(:func:`F_unif`, :func:`F_wgt`) only checks that the start is nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epsr import (
    ShiftNodes,
    build_A,
    equidistant_nodes,
    rhs_vector,
    solve_coefficients,
    solve_coefficients_stacked,
)
from .spectra import FrequencySet, integer_frequencies

__all__ = [
    "ShotAllocation",
    "VarianceReport",
    "OptimizeResult",
    "F_unif",
    "F_wgt",
    "stacked_objective",
    "grad_F_unif",
    "subgrad_F_wgt",
    "allocate",
    "integer_shot_counts",
    "allocation_variance",
    "predicted_variance",
    "optimize_shifts_local",
    "optimize_shifts_global",
    "weighted_lower_bound",
    "certify_equidistant_optimality",
    "canonical_nodes",
    "scan_landscape",
]

#: Margin keeping optimizer iterates away from the singular box edges.
EPS_BOX = 1e-3

#: First step of the local descent per scheme, and the rungs of its halving
#: ladder c * 0.5**k: uniform backtracking tries steps down to 1e-14, the
#: weighted move halves c / sqrt(t) at most 29 times.
_LOCAL_STEP = {"uniform": 0.25, "weighted": 0.1}
_LOCAL_RUNGS = {"uniform": 45, "weighted": 30}

#: Gradient norm at which the local descent stops as converged.
_LOCAL_GTOL = 1e-8

#: Step of the central differences of the analytic (sub)gradient that give
#: the Hessian of the local descent's Newton step, and the floor of the
#: Hessian's eigenvalue magnitudes relative to the largest one.
_HESSIAN_STEP = 1e-5
_HESSIAN_FLOOR = 1e-8

#: The local descent stops as converged when no Newton rung lowers the
#: objective and the Newton decrement g . |H|^-1 g is below this fraction of
#: max(1, |objective|): what is left to gain is round-off.
_NEWTON_DECREMENT = 1e-13

#: Relative gap to the dual bound Omega_max^d (:func:`weighted_lower_bound`)
#: at which a weighted global search stops: its best member is then
#: certified within this fraction of the optimum.
DUAL_GAP = 1e-6

#: A weighted global search polishes a copy of its best member at generation
#: ``_PROBE_FIRST`` and at every doubling of it, with at most
#: ``_PROBE_ITERS`` local iterations, and stops once the polish is within
#: ``DUAL_GAP`` of the bound.  Over the default de-sweep rows and 40 random
#: frequency sets, certifying probes took at most 28 iterations (nearly all
#: under 10), while a failing probe whose iterate hovers runs to the cap.
_PROBE_FIRST = 10
_PROBE_ITERS = 30

#: A weighted local descent stops once its best iterate has not improved for
#: this many iterations: its subgradient iterates then hover at a kink, and
#: the rest of the budget would return the same best iterate.
_STALL_ITERS = 50

#: Even-parity nodes this close to pi are snapped to pi for integer
#: frequencies (where the rule then merges +-pi into one evaluation), unless
#: that raises the objective.
_PI_SNAP = 1e-6

#: Differential-evolution weight, drawn once per generation from this range
#: (dither), and crossover probability.
_DE_MUTATION = (0.5, 1.0)
_DE_CROSSOVER = 0.9


def _norm_scheme(scheme: str) -> str:
    """Normalized name of a shot-allocation scheme: uniform or weighted."""
    table = {"unif": "uniform", "uniform": "uniform", "wgt": "weighted", "weighted": "weighted"}
    try:
        return table[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; choose uniform or weighted (short: unif, wgt)") from None


@dataclass(frozen=True)
class ShotAllocation:
    """Shot counts per expanded shift, summing to ``total``.

    Built by :func:`allocate` for either scheme, or directly for any other
    split.  Counts are kept fractional for analytic predictions; integer
    rounding is applied only when a sampling run is executed (largest
    remainder, see :func:`integer_shot_counts`).  Under the weighted scheme,
    shifts with a zero coefficient receive zero shots and are skipped during
    sampling.
    """

    counts: tuple[float, ...]
    total: float

    def __post_init__(self):
        counts = tuple(float(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", float(self.total))
        if self.total <= 0:
            raise ValueError("total shot count must be positive")
        arr = np.asarray(counts)
        if np.any(arr < 0):
            raise ValueError("shot counts must be nonnegative")
        if abs(arr.sum() - self.total) > 1e-9 * self.total:
            raise ValueError("shot counts must sum to the total")


@dataclass(frozen=True)
class VarianceReport:
    """Predicted derivative variance in units of sigma^2 / N_total."""

    predicted_scaled_variance: float
    scheme: str


@dataclass(frozen=True)
class OptimizeResult:
    nodes: ShiftNodes
    objective: float
    iterations: int
    converged: bool
    certificate: str | None = None
    equidistant_error: float | None = None


def _parity_of(d: int) -> str:
    if d < 1:
        raise ValueError("derivative order must be >= 1 for node optimization")
    return "odd" if d % 2 else "even"


def F_unif(nodes: ShiftNodes, fs: FrequencySet, d: int) -> float:
    """||b(x)||_2^2 / 2 -- the uniform-shot variance objective."""
    b, _ = solve_coefficients(nodes, fs, d)
    return 0.5 * float(b @ b)


def F_wgt(nodes: ShiftNodes, fs: FrequencySet, d: int) -> float:
    """||b(x)||_1 -- the weighted-shot variance objective."""
    b, _ = solve_coefficients(nodes, fs, d)
    return float(np.sum(np.abs(b)))


def _grads(nodes: np.ndarray, fs: FrequencySet, d: int, uniform: bool) -> np.ndarray:
    """(Sub)gradients -diag(A' A^-1 w b^T) for a stack of full node vectors, shape (n, m).

    w = b for F_unif, sgn(b) (sgn(0) = 0) for F_wgt; NaN rows where the
    node set is singular.  Odd A' = Omega_k cos(Omega_k x_i) and even
    A' = [0 | -Omega_k sin(Omega_k x_i)] are read off the other parity's A.
    """
    parity = _parity_of(d)
    b, nonsingular = solve_coefficients_stacked(nodes, fs, d)
    x, b = nodes[nonsingular], b[nonsingular]
    a = build_A(x, fs, parity)
    w = fs.as_array()
    if parity == "odd":
        a1 = w * build_A(x, fs, "even")[..., 1:]
    else:
        a1 = np.zeros_like(a)
        a1[..., 1:] = -w * build_A(x, fs, "odd")
    weights = b if uniform else np.sign(b)
    g = np.full(nodes.shape, np.nan)
    # matmul then diagonal, row for row the floats of the one-matrix form
    g[nonsingular] = -np.diagonal(a1 @ np.linalg.solve(a, weights[:, :, None] * b[:, None, :]),
                                  axis1=-2, axis2=-1)
    return g


def _grad(nodes: ShiftNodes, fs: FrequencySet, d: int, uniform: bool) -> np.ndarray:
    """The one-row case of :func:`_grads`; raises where :func:`solve_coefficients` does."""
    g = _grads(nodes.as_array()[None], fs, d, uniform)[0]
    if nodes.parity != _parity_of(d) or np.isnan(g).any():
        solve_coefficients(nodes, fs, d)  # raises ValueError or SingularNodesError
    return g


def grad_F_unif(nodes: ShiftNodes, fs: FrequencySet, d: int) -> np.ndarray:
    """Gradient of F_unif with respect to the nodes: -diag(A' A^-1 b b^T)."""
    return _grad(nodes, fs, d, True)


def subgrad_F_wgt(nodes: ShiftNodes, fs: FrequencySet, d: int) -> np.ndarray:
    """One subgradient of F_wgt: -diag(A' A^-1 sgn(b) b^T), with sgn(0) = 0."""
    return _grad(nodes, fs, d, False)


def allocate(scheme: str, gamma, n_total: float, shifts) -> ShotAllocation:
    """Shot allocation over expanded shifts ``shifts`` with coefficients ``gamma``.

    uniform: equal counts per node, split evenly over the node's shifts
    (+-x share |phi|; a node merged by the rule has one shift), the split
    whose variance :func:`predicted_variance` gives.  weighted: counts
    proportional to |gamma_mu|, which is the variance-optimal split for the
    given total.
    """
    scheme = _norm_scheme(scheme)
    if n_total <= 0:
        raise ValueError("total shot count must be positive")
    g = np.abs(np.asarray(gamma, dtype=float))
    if g.size == 0 or np.all(g == 0):
        raise ValueError("coefficients must not all be zero")
    if scheme == "uniform":
        phi = np.abs(np.asarray(shifts, dtype=float))
        _, node, per_node = np.unique(phi, return_inverse=True, return_counts=True)
        counts = n_total / per_node.size / per_node[node]
    else:
        counts = n_total * g / g.sum()
    return ShotAllocation(tuple(counts), float(n_total))


def integer_shot_counts(allocation: ShotAllocation) -> np.ndarray:
    """Largest-remainder integerization of a fractional allocation.

    Every shift with a positive fractional count keeps at least one shot
    (stolen from the largest bucket if rounding starved it), so no active
    term of the estimator is left unestimated.
    """
    counts = np.asarray(allocation.counts)
    total = int(round(allocation.total))
    if abs(allocation.total - total) > 1e-9:
        raise ValueError("integer rounding needs an integer total")
    floors = np.floor(counts).astype(int)
    leftover = total - int(floors.sum())
    order = np.argsort(-(counts - floors), kind="stable")
    out = floors.copy()
    for idx in order[:leftover]:
        out[idx] += 1
    active = counts > 0
    if total >= int(active.sum()):
        for idx in np.nonzero(active & (out == 0))[0]:
            donor = int(np.argmax(out))
            out[donor] -= 1
            out[idx] += 1
    return out


def allocation_variance(gamma, counts, sigma2: float = 1.0) -> float:
    """Derivative variance sum_mu |gamma_mu|^2 sigma^2 / N_mu for a concrete split.

    Shifts with zero coefficient are skipped; a zero count on an active shift
    gives infinite variance.
    """
    g = np.abs(np.asarray(gamma, dtype=float))
    n = np.asarray(counts, dtype=float)
    active = g > 0
    if np.any(n[active] == 0):
        return math.inf
    return float(np.sum(g[active] ** 2 * sigma2 / n[active]))


def predicted_variance(b, parity: str, scheme: str) -> VarianceReport:
    """Scaled variance prediction (units of sigma^2 / N_total) for a solved rule.

    uniform: r * ||b||_2^2 for odd parity, (r+1) * ||b||_2^2 for even parity
    (b then has r+1 entries).  weighted: ||b||_1^2.  The variance of any
    other split is :func:`allocation_variance` of its counts.
    """
    scheme = _norm_scheme(scheme)
    b = np.asarray(b, dtype=float)
    if scheme == "uniform":
        m = b.size  # r for odd parity, r+1 for even
        return VarianceReport(m * float(b @ b), scheme)
    l1 = float(np.sum(np.abs(b)))
    return VarianceReport(l1 * l1, scheme)


def canonical_nodes(values) -> np.ndarray:
    """Fold nodes mod 2*pi into [0, pi] and sort ascending.

    The variance objectives are invariant under permutation, reflection and
    2*pi translation of the nodes, so comparisons against reference optima
    quotient by those symmetries.
    """
    y = np.mod(np.asarray(values, dtype=float), 2 * np.pi)
    y = np.where(y > np.pi, 2 * np.pi - y, y)
    return np.sort(y)


def _values(nodes: np.ndarray, fs: FrequencySet, d: int, uniform: bool) -> np.ndarray:
    """F_unif or F_wgt for a stack of full node vectors, shape (n, m); +inf where singular."""
    b, nonsingular = solve_coefficients_stacked(nodes, fs, d)
    if uniform:
        # the stacked dot product sums in the order of the scalar b @ b
        values = 0.5 * (b[:, None, :] @ b[:, :, None])[:, 0, 0]
    else:
        values = np.sum(np.abs(b), axis=1)
    return values if nonsingular.all() else np.where(nonsingular, values, np.inf)


def _full(parity: str, free: np.ndarray) -> np.ndarray:
    """The full node vectors of a stack of free-node vectors: x_0 = 0 prepended for even parity."""
    return free if parity == "odd" else np.concatenate([np.zeros((len(free), 1)), free], axis=1)


def stacked_objective(free, fs: FrequencySet, d: int, scheme: str) -> np.ndarray:
    """F_unif or F_wgt for a stack of free-node vectors, shape (n, r), at once.

    Free nodes are all nodes for odd d and x_1..x_r (x_0 = 0 pinned) for even
    d.  Singular node sets get +inf, exactly where :func:`F_unif` and
    :func:`F_wgt` raise SingularNodesError.
    """
    uniform = _norm_scheme(scheme) == "uniform"
    return _values(_full(_parity_of(d), np.asarray(free, dtype=float)), fs, d, uniform)


def _box(parity: str) -> tuple[float, float]:
    """Bounds of the free node coordinates."""
    return EPS_BOX, (np.pi - EPS_BOX if parity == "odd" else np.pi)


def _project(parity: str, free: np.ndarray) -> np.ndarray:
    """Clamp free coordinates (one vector or a stack) into the node box and sort them ascending."""
    return np.sort(np.clip(free, *_box(parity)))


def _nodes_from_free(parity: str, free: np.ndarray) -> ShiftNodes:
    return ShiftNodes(parity, tuple(_full(parity, free[None])[0]))


def _newton_step(grads, free: np.ndarray, g: np.ndarray, pinned: np.ndarray) -> np.ndarray | None:
    """|H|^-1 g over the unpinned coordinates (0 on pinned ones); None when it fails.

    H comes from central differences of ``grads``, all 2k probes of the k
    unpinned coordinates in one stacked call; its eigenvalues, after
    symmetrizing, are taken in magnitude and floored at ``_HESSIAN_FLOOR``
    of the largest, so the step descends also where H is indefinite (a
    saddle or a kink of F_wgt) and stays finite where it is flat.  None when
    a probe is singular (its gradient row is NaN) or H vanishes.
    """
    idx = np.flatnonzero(~pinned)
    steps = _HESSIAN_STEP * np.eye(free.size)[idx]
    probes = grads(np.concatenate([free + steps, free - steps]))[:, idx]
    hess = ((probes[:idx.size] - probes[idx.size:]) / (2 * _HESSIAN_STEP)).T
    hess = 0.5 * (hess + hess.T)
    if not (np.all(np.isfinite(hess)) and np.any(hess)):
        return None
    w, v = np.linalg.eigh(hess)
    mag = np.maximum(np.abs(w), _HESSIAN_FLOOR * np.max(np.abs(w)))
    step = np.zeros(free.size)
    step[idx] = v @ ((v.T @ g[idx]) / mag)
    return step


def optimize_shifts_local(fs: FrequencySet, d: int, scheme: str, start: ShiftNodes,
                          max_iters: int = 5000) -> OptimizeResult:
    """Projected Newton and (sub)gradient descent on F_unif or F_wgt.

    Odd-parity nodes live in (EPS_BOX, pi - EPS_BOX), even-parity nodes keep
    x_0 pinned at 0 with the rest in [EPS_BOX, pi]; iterates are re-sorted to
    canonical ascending order after every step.  Each iteration first tries
    the Newton step |H|^-1 g, H by central differences of the analytic
    (sub)gradient with its eigenvalues taken in magnitude (floored), on the
    halving ladder 0.5**k: the first rung whose objective (+inf when
    singular) is below the current value is taken.  Only when no Newton rung
    lowers the objective does the iteration walk the (sub)gradient ladder
    c * 0.5**k and take the first rung whose objective is below a bound:
    F_unif backtracks from 0.25 and needs a decrease (bound: the current
    value); F_wgt moves by the diminishing step 0.1 / sqrt(t) and only needs
    nonsingular nodes (bound: +inf).  Both steps use the projected
    gradient: a coordinate on a box face whose descent direction points out
    of the box is held there.  The descent stops when the projected gradient
    norm reaches ``_LOCAL_GTOL``, when a failed Newton ladder leaves only
    round-off to gain (``_NEWTON_DECREMENT``), when a uniform ladder fails
    or when a weighted descent's best iterate is ``_STALL_ITERS`` iterations
    old.  The best iterate seen is returned, so the reported objective is
    monotone in the iteration budget and never above the projected start's.
    After the start check, each gradient, Newton probe set and ladder is
    one stacked solve.

    Raises:
        SingularNodesError: when the start nodes, or their projection into
            the box, are singular.
    """
    scheme = _norm_scheme(scheme)
    uniform = scheme == "uniform"
    parity = _parity_of(d)
    if start.parity != parity:
        raise ValueError(f"order {d} needs {parity} start nodes")
    objective = F_unif if uniform else F_wgt
    rungs = _LOCAL_RUNGS[scheme]

    def score(free_stack):
        return _values(_full(parity, free_stack), fs, d, uniform)

    def grads(free_stack):
        g = _grads(_full(parity, free_stack), fs, d, uniform)
        return g if parity == "odd" else g[:, 1:]

    lo, hi = _box(parity)

    def projected_grad(x):
        # a coordinate on a box face whose descent direction points out of
        # the box is pinned: the projected gradient is zero there
        g = grads(x[None])[0]
        pinned = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        g[pinned] = 0.0
        return g, pinned

    objective(start, fs, d)  # raises on a singular start, before any projection
    # the free nodes are the last r: all of them for odd parity, x_1..x_r for even
    free = _project(parity, start.as_array()[-start.r:])
    f = float(score(free[None])[0])
    if f == math.inf:
        objective(_nodes_from_free(parity, free), fs, d)  # raises: the projection is singular
    best_f, best_free, best_it = f, free.copy(), 0

    def first_rung(step: float, direction: np.ndarray, bound: float):
        cands = _project(parity, free - (step * 0.5 ** np.arange(rungs))[:, None] * direction)
        values = score(cands)
        below = np.flatnonzero(values < bound)
        return (cands[below[0]], float(values[below[0]])) if below.size else None

    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        g, pinned = projected_grad(free)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _LOCAL_GTOL:
            converged = True
            break
        newton = _newton_step(grads, free, g, pinned)
        taken = None if newton is None else first_rung(1.0, newton, f)
        if taken is None and newton is not None \
                and float(g @ newton) <= _NEWTON_DECREMENT * max(1.0, abs(f)):
            converged = True
            break
        if taken is None:
            if uniform:
                taken = first_rung(_LOCAL_STEP[scheme], g, f)
            else:
                # the subgradient move is bounded to at most c/sqrt(t) so
                # that near-singular iterates (enormous subgradients)
                # cannot catapult the iterate
                taken = first_rung(_LOCAL_STEP[scheme] / math.sqrt(it),
                                   g if gnorm <= 1.0 else g / gnorm, math.inf)
            if taken is None:
                converged = uniform and gnorm <= 1e-5
                break
        free, f = taken
        if f < best_f:
            best_f, best_free, best_it = f, free.copy(), it
        if not uniform and it - best_it >= _STALL_ITERS:
            break

    if not converged:
        # the subgradient iterates hover around a stationary point instead of
        # landing on it; declare convergence from the best iterate's residual
        # (every iterate kept had a finite objective, so its gradient exists)
        converged = float(np.linalg.norm(projected_grad(best_free)[0])) <= 1e-3
    return OptimizeResult(_nodes_from_free(parity, best_free), best_f, it, converged)


def _partners(rng: np.random.Generator, npop: int) -> np.ndarray:
    """Three distinct partners per member, none of them the member itself.

    Row j of the (3, npop) result holds the j-th partner of every member.
    Member i's partners are i + o_j (mod npop) for three distinct offsets in
    1..npop-1, drawn without replacement by one ``integers`` call: o_2 and
    o_3 range over one and two offsets fewer and step over the offsets
    already taken.  Needs npop >= 4.
    """
    offsets = rng.integers(1, np.array([[npop], [npop - 1], [npop - 2]]), size=(3, npop))
    o1, o2, o3 = offsets
    o2 += o2 >= o1
    low = np.minimum(o1, o2)
    o3 += o3 >= low
    o3 += o3 >= o1 + o2 - low
    offsets += np.arange(npop)
    offsets %= npop
    return offsets


def _snap_to_pi(nodes: ShiftNodes, f: float, uniform: bool, fs: FrequencySet, d: int):
    """Nodes within ``_PI_SNAP`` of pi moved onto pi, when the objective is no higher.

    Only for even parity and integer frequencies, where a node at pi merges
    its two evaluations into one.
    """
    vals = nodes.as_array()
    near = np.abs(vals - np.pi) <= _PI_SNAP
    if nodes.parity != "even" or not fs.is_all_integer() or not np.any(near & (vals != np.pi)):
        return nodes, f
    snapped = ShiftNodes("even", tuple(np.where(near, np.pi, vals)))
    f_snapped = float(_values(snapped.as_array()[None], fs, d, uniform)[0])
    return (snapped, f_snapped) if f_snapped <= f else (nodes, f)


def optimize_shifts_global(fs: FrequencySet, d: int, scheme: str, population: int | None = None,
                           generations: int | None = None, seed=0) -> OptimizeResult:
    """Differential evolution (rand/1/bin) over the node box, then a local polish.

    Each generation draws one trial per population member from the current
    population only (Storn & Price 1997; SciPy's ``updating='deferred'``),
    then scores all trials in one :func:`stacked_objective` call, so a
    generation is a single stacked solve; a trial replaces its member when
    it is no worse.  Singular candidates get objective +inf.  Deterministic
    for a given seed.  The differential weight is drawn once per generation
    from ``_DE_MUTATION`` (dither), which converges markedly faster at
    dimension >= 4 while keeping the strategy rand/1/bin.
    A weighted search stops as soon as its best member is within the
    relative gap ``DUAL_GAP`` of :func:`weighted_lower_bound`, which
    certifies it near-optimal; every search stops once the population's
    objective spread falls to 1e-12 of the best value, or at the cap
    ``generations`` (default max(400, 300 r)).  ``iterations`` counts the
    generations run.  The best member is then polished by
    :func:`optimize_shifts_local` (as SciPy's ``polish=True``), which never
    raises its objective, and for integer frequencies an even-parity node
    within ``_PI_SNAP`` of pi is moved onto pi unless that raises it.

    A weighted search also probes: after generation ``_PROBE_FIRST`` and
    every doubling of it (10, 20, 40, ...) short of the last generation, it
    polishes a copy of its best member with at most ``_PROBE_ITERS`` local
    iterations, and when that polish is within ``DUAL_GAP`` of the bound it
    stops and returns it (pi snap included) in place of the final polish.
    A probe draws no random numbers and does not call
    :func:`stacked_objective`, so the generations up to the stop, and the
    result of a search no probe certifies, are those of a search without
    probes.  The cost is bounded
    by the schedule: at most ceil(log2(generations / _PROBE_FIRST)) probes
    of at most ``_PROBE_ITERS`` iterations each, which a search whose box
    optimum lies above the bound pays in full.

    ``converged`` is set when the polish converged or the result is within
    ``DUAL_GAP`` of the bound.  When the frequencies are the integer set
    {1..r}, the result carries the max-component error against the
    equidistant reference nodes (canonical form on both sides), and the
    weighted-scheme result is tagged "global-equidistant" when it lands on
    them.
    """
    scheme = _norm_scheme(scheme)
    parity = _parity_of(d)
    dim = fs.r
    npop = population if population is not None else 15 * dim
    if npop < 4 * dim:
        raise ValueError(f"population must be at least 4 * dimension = {4 * dim}")
    if generations is None:
        # A weighted search on {1..r} stops far below this cap, at its first
        # certified probe; the cap binds for uniform searches and for sets
        # whose box optimum lies above Omega_max^d, where the population's
        # spread shrinks more slowly as the dimension grows.
        generations = max(400, 300 * dim)
    if generations < 1:
        raise ValueError(f"generations must be at least 1, not {generations}")
    lo, hi = _box(parity)
    uniform = scheme == "uniform"
    # the uniform scheme has no bound; -inf never certifies a member
    bound = weighted_lower_bound(fs, d) if scheme == "weighted" else -math.inf

    rng = np.random.default_rng(seed)
    pop = rng.uniform(lo, hi, size=(npop, dim))
    fit = stacked_objective(pop, fs, d, scheme)

    def polish_best(**limit):
        # members never leave [lo, hi], so their canonical form is the sorted
        # vector; rescore it so the reported value belongs to the returned
        # nodes
        free = np.sort(pop[int(np.argmin(fit))])
        nodes = _nodes_from_free(parity, free)
        f = float(_values(_full(parity, free[None]), fs, d, uniform)[0])
        if not math.isfinite(f):
            return nodes, f, False
        polished = optimize_shifts_local(fs, d, scheme, nodes, **limit)
        if polished.objective < f:
            nodes, f = polished.nodes, polished.objective
        return nodes, f, polished.converged

    members = np.arange(npop)
    probe_at = _PROBE_FIRST if scheme == "weighted" else math.inf
    result = None
    gens_run = 0
    for gen in range(generations):
        gens_run = gen + 1
        f_weight = float(rng.uniform(*_DE_MUTATION))
        p1, p2, p3 = _partners(rng, npop)
        mutant = pop[p1] + f_weight * (pop[p2] - pop[p3])
        outside = (mutant < lo) | (mutant > hi)
        mutant[outside] = rng.uniform(lo, hi, size=int(outside.sum()))
        cross = rng.random((npop, dim)) < _DE_CROSSOVER
        cross[members, rng.integers(dim, size=npop)] = True
        trial = np.where(cross, mutant, pop)
        f_trial = stacked_objective(trial, fs, d, scheme)
        better = f_trial <= fit
        pop[better] = trial[better]
        fit[better] = f_trial[better]
        best = float(np.min(fit))
        if best - bound <= DUAL_GAP * bound:
            break
        spread = float(np.max(fit)) - best
        if np.isfinite(spread) and spread <= 1e-12 * max(1.0, abs(best)):
            break
        # the final polish follows the last generation, so no probe there
        if gens_run == probe_at and gens_run < generations:
            probe_at *= 2
            result = polish_best(max_iters=_PROBE_ITERS)
            if result[1] - bound <= DUAL_GAP * bound:
                break
            result = None

    best_nodes, best_f, converged = result if result is not None else polish_best()
    if math.isfinite(best_f):
        best_nodes, best_f = _snap_to_pi(best_nodes, best_f, uniform, fs, d)
    converged = converged or best_f - bound <= DUAL_GAP * bound

    equi_err = certificate = None
    if fs.is_consecutive_integers():
        ref = equidistant_nodes(fs.r, parity).as_array()
        full = best_nodes.as_array()
        equi_err = float(np.max(np.abs(canonical_nodes(full) - canonical_nodes(ref))))
        if scheme == "weighted" and equi_err <= 1e-3:
            certificate = "global-equidistant"
    return OptimizeResult(best_nodes, best_f, gens_run, bool(converged), certificate, equi_err)


def weighted_lower_bound(fs: FrequencySet, d: int) -> float:
    """Omega_max^d, a lower bound of F_wgt at every node set (weak duality).

    At any nodes x the coefficients satisfy A(x)^T b = rhs, so every y with
    ||A(x) y||_inf <= 1 gives rhs . y = b . A(x) y <= ||b||_1 = F_wgt(x)
    (Theis, Quantum 7, 1070, 2023).  For y = +-e_max, the unit vector of the
    largest frequency's column, A(x) y is +-sin(Omega_max x_i) or
    +-cos(Omega_max x_i), bounded by 1 for every x, so y is feasible at
    every node set; with the sign of the rhs entry its dual value is
    Omega_max^d, for any frequency set.
    """
    _parity_of(d)
    return fs.frequencies[-1] ** d


def certify_equidistant_optimality(r: int, d: int) -> bool:
    """Certify that equidistant nodes solve the weighted-scheme problem.

    The dual value of y = +-e_r, the largest frequency's unit vector, is
    :func:`weighted_lower_bound` = r**d for the frequencies {1..r}; it
    bounds F_wgt from below at every node set.  The certificate checks that
    dual value against the rhs and that F_wgt at the equidistant nodes
    attains it.
    """
    parity = _parity_of(d)
    fs = integer_frequencies(r)
    target = weighted_lower_bound(fs, d)
    b, _ = solve_coefficients(equidistant_nodes(r, parity), fs, d)
    y = np.zeros(b.size)
    y[-1] = (-1.0) ** ((d - 1) // 2) if parity == "odd" else (-1.0) ** (d // 2)
    dual = float(rhs_vector(d, fs, parity) @ y)
    primal = float(np.sum(np.abs(b)))
    return abs(dual - target) <= 1e-9 * target and abs(primal - target) <= 1e-9 * target


def scan_landscape(fs: FrequencySet, d: int, scheme: str, n: int = 61):
    """Objective values on an n x n interior grid over two free nodes.

    Odd parity requires r = 2 (grid over (x_1, x_2)); even parity requires
    r = 2 with x_0 pinned at 0.  Singular configurations are reported as inf.

    Returns (grid_points, value_matrix) with value[i, j] at
    (x1 = grid[i], x2 = grid[j]).
    """
    if fs.r != 2:
        raise ValueError("landscape scan covers the two-free-node case (r = 2)")
    grid = np.linspace(0.0, np.pi, n + 2)[1:-1]
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    values = stacked_objective(np.stack([x1.ravel(), x2.ravel()], axis=1), fs, d, scheme)
    return grid, values.reshape(n, n)
