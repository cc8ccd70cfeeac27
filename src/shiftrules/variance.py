"""Derivative-variance objectives, shot allocation and node optimization.

With finite measurement shots, a shift-rule derivative estimate has variance
(sigma^2 / N_total times) r * ||b||_2^2 under equal shots per evaluation and
||b||_1^2 when shots are split proportionally to the coefficient magnitudes;
the proportional split is optimal among all allocations (Cauchy-Schwarz).
Node selection therefore minimizes F_unif = ||b||_2^2 / 2 or F_wgt = ||b||_1
over the node box.  This module provides both objectives (per node set and
over stacks of node sets), their analytic (sub)gradients, a projected
(sub)gradient descent whose every iteration walks one halving step ladder,
a differential-evolution global search that scores each generation in one
stacked solve, shot-allocation helpers and the optimality certificate for
the classical equidistant nodes under the weighted scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .epsr import (
    ShiftNodes,
    SingularNodesError,
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

#: Differential-evolution weight, drawn once per generation from this range
#: (dither), and crossover probability.
_DE_MUTATION = (0.5, 1.0)
_DE_CROSSOVER = 0.9


def _norm_scheme(scheme: str) -> str:
    table = {"unif": "uniform", "uniform": "uniform", "wgt": "weighted", "weighted": "weighted",
             "custom": "custom"}
    try:
        return table[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


@dataclass(frozen=True)
class ShotAllocation:
    """Shot counts per expanded shift, summing to ``total``.

    Counts are kept fractional for analytic predictions; integer rounding is
    applied only when a sampling run is executed (largest remainder, see
    :func:`integer_shot_counts`).  Under the weighted scheme, shifts with a
    zero coefficient receive zero shots and are skipped during sampling.
    """

    scheme: str
    counts: tuple[float, ...]
    total: float

    def __post_init__(self):
        object.__setattr__(self, "scheme", _norm_scheme(self.scheme))
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


def _grad_matrices(nodes: ShiftNodes, fs: FrequencySet, d: int):
    """A, its component-wise node derivative A' and b at one node set.

    Odd A' = Omega_k cos(Omega_k x_i) and even A' = [0 | -Omega_k sin(Omega_k x_i)]
    are read off the matrix of the other parity.
    """
    b, _ = solve_coefficients(nodes, fs, d)
    a = build_A(nodes, fs, nodes.parity)
    w = fs.as_array()
    if nodes.parity == "odd":
        a1 = w * build_A(nodes, fs, "even")[:, 1:]
    else:
        a1 = np.zeros_like(a)
        a1[:, 1:] = -w * build_A(nodes, fs, "odd")
    return a, a1, b


def grad_F_unif(nodes: ShiftNodes, fs: FrequencySet, d: int) -> np.ndarray:
    """Gradient of F_unif with respect to the nodes: -diag(A' A^-1 b b^T)."""
    a, a1, b = _grad_matrices(nodes, fs, d)
    return -np.diag(a1 @ np.linalg.solve(a, np.outer(b, b)))


def subgrad_F_wgt(nodes: ShiftNodes, fs: FrequencySet, d: int) -> np.ndarray:
    """One subgradient of F_wgt: -diag(A' A^-1 sgn(b) b^T), with sgn(0) = 0."""
    a, a1, b = _grad_matrices(nodes, fs, d)
    return -np.diag(a1 @ np.linalg.solve(a, np.outer(np.sign(b), b)))


def allocate(scheme: str, gamma, n_total: float) -> ShotAllocation:
    """Shot allocation over expanded shifts with coefficients ``gamma``.

    uniform: equal counts per shift.  weighted: counts proportional to
    |gamma_mu|, which is the variance-optimal split for the given total.
    """
    scheme = _norm_scheme(scheme)
    if n_total <= 0:
        raise ValueError("total shot count must be positive")
    g = np.abs(np.asarray(gamma, dtype=float))
    if g.size == 0 or np.all(g == 0):
        raise ValueError("coefficients must not all be zero")
    if scheme == "uniform":
        counts = np.full(g.size, n_total / g.size)
    elif scheme == "weighted":
        counts = n_total * g / g.sum()
    else:
        raise ValueError("custom allocations are constructed directly as ShotAllocation")
    return ShotAllocation(scheme, tuple(counts), float(n_total))


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


def predicted_variance(b, parity: str, scheme: str, gamma=None, counts=None,
                       total: float | None = None) -> VarianceReport:
    """Scaled variance prediction (units of sigma^2 / N_total) for a solved rule.

    uniform: r * ||b||_2^2 for odd parity, (r+1) * ||b||_2^2 for even parity
    (b then has r+1 entries).  weighted: ||b||_1^2.  custom: requires the
    expanded coefficients and a concrete allocation; evaluates the allocation
    variance directly.
    """
    scheme = _norm_scheme(scheme)
    b = np.asarray(b, dtype=float)
    if scheme == "uniform":
        m = b.size  # r for odd parity, r+1 for even
        scaled = m * float(b @ b)
        return VarianceReport(scaled, scheme)
    if scheme == "weighted":
        l1 = float(np.sum(np.abs(b)))
        return VarianceReport(l1 * l1, scheme)
    if gamma is None or counts is None or total is None:
        raise ValueError("custom scheme needs gamma, counts and total")
    scaled = allocation_variance(gamma, np.asarray(counts) / float(total))
    return VarianceReport(scaled, scheme)


def canonical_nodes(values) -> np.ndarray:
    """Fold nodes mod 2*pi into [0, pi] and sort ascending.

    The variance objectives are invariant under permutation, reflection and
    2*pi translation of the nodes, so comparisons against reference optima
    quotient by those symmetries.
    """
    y = np.mod(np.asarray(values, dtype=float), 2 * np.pi)
    y = np.where(y > np.pi, 2 * np.pi - y, y)
    return np.sort(y)


def _node_scheme(scheme: str) -> str:
    """Normalized name of a node-optimization scheme: uniform or weighted."""
    scheme = _norm_scheme(scheme)
    if scheme == "custom":
        raise ValueError("node optimization targets the uniform or weighted scheme")
    return scheme


def _score(objective, nodes: ShiftNodes, fs: FrequencySet, d: int) -> float:
    """``objective(nodes, fs, d)``, or +inf where the nodes are singular."""
    try:
        return objective(nodes, fs, d)
    except SingularNodesError:
        return math.inf


def stacked_objective(free, fs: FrequencySet, d: int, scheme: str) -> np.ndarray:
    """F_unif or F_wgt for a stack of free-node vectors, shape (n, r), at once.

    Free nodes are all nodes for odd d and x_1..x_r (x_0 = 0 pinned) for even
    d.  Singular node sets get +inf, exactly where :func:`F_unif` and
    :func:`F_wgt` raise SingularNodesError.
    """
    uniform = _node_scheme(scheme) == "uniform"
    free = np.asarray(free, dtype=float)
    nodes = free if _parity_of(d) == "odd" else np.concatenate([np.zeros((len(free), 1)), free], axis=1)
    b, nonsingular = solve_coefficients_stacked(nodes, fs, d)
    if uniform:
        # the stacked dot product sums in the order of the scalar b @ b
        values = 0.5 * (b[:, None, :] @ b[:, :, None])[:, 0, 0]
    else:
        values = np.sum(np.abs(b), axis=1)
    return np.where(nonsingular, values, np.inf)


def _project(parity: str, free: np.ndarray) -> np.ndarray:
    """Clamp free coordinates into the node box and sort ascending."""
    if parity == "odd":
        return np.sort(np.clip(free, EPS_BOX, np.pi - EPS_BOX))
    return np.sort(np.clip(free, EPS_BOX, np.pi))


def _nodes_from_free(parity: str, free: np.ndarray) -> ShiftNodes:
    if parity == "odd":
        return ShiftNodes("odd", tuple(free))
    return ShiftNodes("even", (0.0, *free))


def _free_from_nodes(nodes: ShiftNodes) -> np.ndarray:
    vals = nodes.as_array()
    return vals if nodes.parity == "odd" else vals[1:]


def optimize_shifts_local(fs: FrequencySet, d: int, scheme: str, start: ShiftNodes,
                          max_iters: int = 5000, trace_path=None) -> OptimizeResult:
    """Projected (sub)gradient descent on F_unif or F_wgt.

    Odd-parity nodes live in (EPS_BOX, pi - EPS_BOX), even-parity nodes keep
    x_0 pinned at 0 with the rest in [EPS_BOX, pi]; iterates are re-sorted to
    canonical ascending order after every step.  Each iteration walks one
    halving ladder of steps and takes the first rung whose objective (+inf
    when singular) is below a bound.  F_unif backtracks from 0.25 and needs
    a decrease (bound: the current value); F_wgt moves by the diminishing
    step 0.1 / sqrt(t) and only needs nonsingular nodes (bound: +inf).  The
    best iterate seen is returned, so the reported objective is monotone in
    the iteration budget.

    Raises:
        SingularNodesError: when the start nodes are singular.
    """
    scheme = _node_scheme(scheme)
    uniform = scheme == "uniform"
    parity = _parity_of(d)
    if start.parity != parity:
        raise ValueError(f"order {d} needs {parity} start nodes")
    objective = F_unif if uniform else F_wgt
    grad = grad_F_unif if uniform else subgrad_F_wgt

    objective(start, fs, d)  # raises on a singular start, before any projection
    free = _project(parity, _free_from_nodes(start))
    nodes = _nodes_from_free(parity, free)
    f = objective(nodes, fs, d)
    best_f, best_free = f, free.copy()

    trace = open(trace_path, "w") if trace_path is not None else None
    try:
        if trace:
            trace.write(json.dumps({"iter": 0, "objective": f, "nodes": list(nodes.values)}) + "\n")
        converged = False
        it = 0
        for it in range(1, max_iters + 1):
            g_full = grad(nodes, fs, d)
            g = g_full if parity == "odd" else g_full[1:]
            gnorm = float(np.linalg.norm(g))
            if gnorm <= _LOCAL_GTOL:
                converged = True
                break
            if uniform:
                step, direction, bound = _LOCAL_STEP[scheme], g, f
            else:
                # the subgradient move is bounded to at most c/sqrt(t) so that
                # near-singular iterates (enormous subgradients) cannot
                # catapult the iterate
                step = _LOCAL_STEP[scheme] / math.sqrt(it)
                direction, bound = (g if gnorm <= 1.0 else g / gnorm), math.inf
            for k in range(_LOCAL_RUNGS[scheme]):
                cand = _project(parity, free - step * 0.5**k * direction)
                f_cand = _score(objective, _nodes_from_free(parity, cand), fs, d)
                if f_cand < bound:
                    free, f = cand, f_cand
                    break
            else:
                converged = uniform and gnorm <= 1e-5
                break
            nodes = _nodes_from_free(parity, free)
            if f < best_f:
                best_f, best_free = f, free.copy()
            if trace:
                trace.write(json.dumps({"iter": it, "objective": f, "nodes": list(nodes.values)}) + "\n")
    finally:
        if trace:
            trace.close()

    best_nodes = _nodes_from_free(parity, best_free)
    if not converged:
        # the subgradient iterates hover around a stationary point instead of
        # landing on it; declare convergence from the best iterate's residual
        # (every iterate kept had a finite objective, so its gradient exists)
        g_full = grad(best_nodes, fs, d)
        g = g_full if parity == "odd" else g_full[1:]
        converged = float(np.linalg.norm(g)) <= 1e-3
    return OptimizeResult(best_nodes, best_f, it, converged)


def optimize_shifts_global(fs: FrequencySet, d: int, scheme: str, population: int | None = None,
                           generations: int = 300, seed=0) -> OptimizeResult:
    """Differential evolution (rand/1/bin) over the node box, deferred updating.

    Each generation draws one trial per population member from the current
    population only (Storn & Price 1997; SciPy's ``updating='deferred'``),
    then scores all trials in one :func:`stacked_objective` call, so a
    generation is a single stacked solve; a trial replaces its member when
    it is no worse.  Singular candidates get objective +inf.  Deterministic
    for a given seed.  The differential weight is drawn once per generation
    from ``_DE_MUTATION`` (dither), which converges markedly faster at
    dimension >= 4 while keeping the strategy rand/1/bin.
    The search stops early once the population's objective spread falls to
    1e-12 of the best value; ``iterations`` counts the generations run.
    When the frequencies are the integer set {1..r}, the result carries the
    max-component error against the equidistant reference nodes (canonical
    form on both sides), and the weighted-scheme result is tagged
    "global-equidistant" when it lands on them.
    """
    scheme = _node_scheme(scheme)
    parity = _parity_of(d)
    dim = fs.r
    npop = population if population is not None else 15 * dim
    if npop < 4 * dim:
        raise ValueError(f"population must be at least 4 * dimension = {4 * dim}")
    if generations < 1:
        raise ValueError(f"generations must be at least 1, not {generations}")
    lo = EPS_BOX
    hi = np.pi - EPS_BOX if parity == "odd" else np.pi

    rng = np.random.default_rng(seed)
    pop = rng.uniform(lo, hi, size=(npop, dim))
    fit = stacked_objective(pop, fs, d, scheme)
    members = np.arange(npop)
    gens_run = 0
    for gen in range(generations):
        gens_run = gen + 1
        f_weight = float(rng.uniform(*_DE_MUTATION))
        # three distinct partners per member, none of them the member itself
        picks = np.argsort(rng.random((npop, npop - 1)), axis=1)[:, :3]
        picks += picks >= members[:, None]
        mutant = pop[picks[:, 0]] + f_weight * (pop[picks[:, 1]] - pop[picks[:, 2]])
        outside = (mutant < lo) | (mutant > hi)
        mutant[outside] = rng.uniform(lo, hi, size=int(outside.sum()))
        cross = rng.random((npop, dim)) < _DE_CROSSOVER
        cross[members, rng.integers(dim, size=npop)] = True
        trial = np.where(cross, mutant, pop)
        f_trial = stacked_objective(trial, fs, d, scheme)
        better = f_trial <= fit
        pop[better] = trial[better]
        fit[better] = f_trial[better]
        spread = float(np.max(fit) - np.min(fit))
        if np.isfinite(spread) and spread <= 1e-12 * max(1.0, abs(float(np.min(fit)))):
            break

    # members never leave [lo, hi], so their canonical form is the sorted
    # vector; rescore it with the scalar objective so the reported value
    # belongs to the returned nodes
    best_nodes = _nodes_from_free(parity, np.sort(pop[int(np.argmin(fit))]))
    best_f = _score(F_unif if scheme == "uniform" else F_wgt, best_nodes, fs, d)

    equi_err = None
    certificate = None
    if fs.is_consecutive_integers():
        ref = equidistant_nodes(fs.r, parity).as_array()
        full = best_nodes.as_array()
        equi_err = float(np.max(np.abs(canonical_nodes(full) - canonical_nodes(ref))))
        if scheme == "weighted" and equi_err <= 1e-3:
            certificate = "global-equidistant"
    spread = float(np.max(fit) - np.min(fit)) if npop > 1 else 0.0
    converged = bool(np.isfinite(spread) and spread <= 1e-10 * max(1.0, abs(best_f)))
    return OptimizeResult(best_nodes, best_f, gens_run, converged, certificate, equi_err)


def certify_equidistant_optimality(r: int, d: int) -> bool:
    """Certify that equidistant nodes solve the weighted-scheme problem.

    Weak duality (Theis, Quantum 7, 1070, 2023): at any nodes x the
    coefficients satisfy A(x)^T b = rhs, so every y with ||A(x) y||_inf <= 1
    gives rhs . y = b . A(x) y <= ||b||_1 = F_wgt(x).  For y = +-e_r the
    product A(x) y is the last column +-sin(r x_i) or +-cos(r x_i), bounded
    by 1 for every x, so y is feasible at every node set and its dual value
    rhs . y = r**d bounds F_wgt from below everywhere.  The certificate
    checks that dual value and that F_wgt at the equidistant nodes attains
    it.
    """
    parity = _parity_of(d)
    fs = integer_frequencies(r)
    target = float(r) ** d
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
