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
gradient) and, when no Newton rung lowers the objective, makes one bounded
move along the (sub)gradient, the same for both objectives, a global
search, and shot-allocation helpers.  The global search returns its first
try, the equidistant nodes fitted to the set, when the bound certifies it
or it beats the search; its DE scores each generation in one stacked solve
and stops once it or a short polish of its best member is certified.

A node search scores through the stacked solver only: a DE generation, the
probes of a Newton step and the rungs of a step ladder are one stacked call
each.  Inside a search, the scalar :func:`solve_coefficients` with its SVD
diagnostics only checks that the start is nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .epsr import (
    ShiftNodes,
    _top_power,
    build_A,
    equidistant_nodes,
    scaled_equidistant_nodes,
    solve_coefficients,
    solve_coefficients_stacked,
)
from .spectra import FrequencySet

__all__ = [
    "ShotAllocation",
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
    "canonical_nodes",
    "scan_landscape",
]

#: Margin keeping optimizer iterates away from the singular box edges.
EPS_BOX = 1e-3

#: Length c of the local descent's fallback move c / sqrt(t), and the rungs
#: of its halving ladder c / sqrt(t) * 0.5**k.
_LOCAL_STEP = 0.1
_LOCAL_RUNGS = 30

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

#: A local descent stops once its best iterate has not improved for this
#: many iterations: its fallback moves then hover at a kink or a flat
#: optimum, and the rest of the budget would return the same best iterate.
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
    """Shot counts per expanded shift; their sum is the ``total``.

    Built by :func:`allocate` for either scheme, or directly for any other
    split.  Counts are kept fractional for analytic predictions; integer
    rounding is applied only when a sampling run is executed (largest
    remainder, see :func:`integer_shot_counts`).  Under the weighted scheme,
    shifts with a zero coefficient receive zero shots and are skipped during
    sampling.
    """

    counts: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(float(c) for c in self.counts))
        if self.total <= 0:
            raise ValueError("total shot count must be positive")
        if any(c < 0 for c in self.counts):
            raise ValueError("shot counts must be nonnegative")

    @property
    def total(self) -> float:
        return float(np.sum(self.counts))


@dataclass(frozen=True)
class OptimizeResult:
    nodes: ShiftNodes
    objective: float
    iterations: int
    converged: bool
    equidistant_error: float | None = None
    stopped_at_cap: bool = False


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
    g = np.abs(np.asarray(gamma, dtype=float))
    if g.size == 0 or np.all(g == 0):
        raise ValueError("coefficients must not all be zero")
    if scheme == "uniform":
        phi = np.abs(np.asarray(shifts, dtype=float))
        _, node, per_node = np.unique(phi, return_inverse=True, return_counts=True)
        counts = n_total / per_node.size / per_node[node]
    else:
        counts = n_total * g / g.sum()
    return ShotAllocation(tuple(counts))


def integer_shot_counts(allocation: ShotAllocation) -> np.ndarray:
    """Largest-remainder integerization of a fractional allocation.

    When the total is at least the number of shifts with a positive
    fractional count, each of them keeps at least one shot (stolen from the
    largest bucket if rounding starved it).  Below that, some get 0 shots;
    :func:`shiftrules.experiments.sampled_estimates` refuses such totals.
    """
    counts = np.asarray(allocation.counts)
    total = int(round(allocation.total))
    if abs(allocation.total - total) > 1e-9 * total:
        raise ValueError(f"integer rounding needs an integer total, not {allocation.total!r}")
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


def allocation_variance(gamma, counts) -> float:
    """Derivative variance sum_mu |gamma_mu|^2 / N_mu (units of sigma^2) for a concrete split.

    Shifts with zero coefficient are skipped; a zero count on an active shift
    gives infinite variance.
    """
    g = np.abs(np.asarray(gamma, dtype=float))
    n = np.asarray(counts, dtype=float)
    active = g > 0
    if np.any(n[active] == 0):
        return math.inf
    return float(np.sum(g[active] ** 2 / n[active]))


def predicted_variance(b, scheme: str) -> float:
    """Scaled variance prediction (units of sigma^2 / N_total) for a solved rule.

    uniform: m * ||b||_2^2 over the m = b.size nodes, r for odd parity and
    r+1 for even.  weighted: ||b||_1^2.  The variance of any other split is
    :func:`allocation_variance` of its counts.  Finite coefficients whose
    variance exceeds the double range raise ValueError naming the scheme.
    """
    scheme = _norm_scheme(scheme)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):
        l1 = float(np.sum(np.abs(b)))
        value = b.size * float(b @ b) if scheme == "uniform" else l1 * l1
    if not math.isfinite(value):
        what = "m ||b||_2^2" if scheme == "uniform" else "||b||_1^2"
        raise ValueError(f"{scheme} predicted variance {what} overflows the double range "
                         f"(largest |b| = {float(np.max(np.abs(b))):.3e})")
    return value


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
    """Projected Newton descent on F_unif or F_wgt, with one bounded fallback move.

    Odd-parity nodes live in (EPS_BOX, pi - EPS_BOX), even-parity nodes keep
    x_0 pinned at 0 with the rest in [EPS_BOX, pi]; iterates are re-sorted to
    canonical ascending order after every step.  Each iteration first tries
    the Newton step |H|^-1 g, H by central differences of the analytic
    (sub)gradient with its eigenvalues taken in magnitude (floored), on the
    halving ladder 0.5**k: the first rung whose objective (+inf when
    singular) is below the current value is taken.  Only when no Newton rung
    lowers the objective does the iteration move, for either scheme, by at
    most c / sqrt(t) (c = ``_LOCAL_STEP``) along the normalised
    (sub)gradient, halving the move until the nodes are nonsingular; the
    move need not lower the objective, and its length is bounded so that a
    near-singular iterate (an enormous gradient) cannot catapult the
    iterate.  Both steps use the projected gradient: a coordinate on a box
    face whose descent direction points out of the box is held there.  The
    descent stops when the projected gradient norm reaches ``_LOCAL_GTOL``,
    when a failed Newton ladder leaves only round-off to gain
    (``_NEWTON_DECREMENT``), when every rung of the fallback move is
    singular, or when its best iterate is ``_STALL_ITERS`` iterations old.
    The best iterate seen is returned, so the reported objective is
    monotone in the iteration budget and never above the projected start's;
    ``converged`` describes that iterate, not a later one above it.
    After the start check, each gradient, Newton probe set and ladder is
    one stacked solve.

    Raises:
        SingularNodesError: when the start nodes, or their projection into
            the box, are singular.
    """
    uniform = _norm_scheme(scheme) == "uniform"
    parity = _parity_of(d)
    if start.parity != parity:
        raise ValueError(f"order {d} needs {parity} start nodes")

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

    solve_coefficients(start, fs, d)  # raises on a singular start, before any projection
    # the free nodes are the last r: all of them for odd parity, x_1..x_r for even
    free = _project(parity, start.as_array()[-start.r:])
    f = float(score(free[None])[0])
    if f == math.inf:
        solve_coefficients(_nodes_from_free(parity, free), fs, d)  # raises: the projection is singular
    best_f, best_free, best_it = f, free.copy(), 0

    def first_rung(step: float, direction: np.ndarray, bound: float):
        cands = _project(parity, free - (step * 0.5 ** np.arange(_LOCAL_RUNGS))[:, None] * direction)
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
            taken = first_rung(_LOCAL_STEP / math.sqrt(it), g if gnorm <= 1.0 else g / gnorm, math.inf)
            if taken is None:
                break
        free, f = taken
        if f < best_f:
            best_f, best_free, best_it = f, free.copy(), it
        if it - best_it >= _STALL_ITERS:
            break

    if not converged or f > best_f:
        # the fallback iterates hover around a stationary point instead of
        # landing on it, or converged at an iterate above the best one;
        # declare convergence from the best iterate's residual (every
        # iterate kept had a finite objective, so its gradient exists)
        converged = float(np.linalg.norm(projected_grad(best_free)[0])) <= 1e-3
    return OptimizeResult(_nodes_from_free(parity, best_free), best_f, it, converged)


@lru_cache(maxsize=16)
def _partner_bounds(npop: int) -> tuple[np.ndarray, np.ndarray]:
    """The upper bounds [[npop], [npop-1], [npop-2]] of :func:`_partners` and arange(npop), read-only."""
    high, members = np.array([[npop], [npop - 1], [npop - 2]]), np.arange(npop)
    high.setflags(write=False)
    members.setflags(write=False)
    return high, members


def _partners(rng: np.random.Generator, npop: int) -> np.ndarray:
    """Three distinct partners per member, none of them the member itself.

    Row j of the (3, npop) result holds the j-th partner of every member.
    Member i's partners are i + o_j (mod npop) for three distinct offsets in
    1..npop-1, drawn without replacement by one ``integers`` call: o_2 and
    o_3 range over one and two offsets fewer and step over the offsets
    already taken.  It is the second of a generation's 4 draws (5 when a
    mutant left the box, see :func:`optimize_shifts_global`); the one call
    is part of the seeded-output contract, and three scalar-bound calls
    would draw the same stream, only slower.  Needs npop >= 4.
    """
    high, members = _partner_bounds(npop)
    offsets = rng.integers(1, high, size=(3, npop))
    o1, o2, o3 = offsets
    o2 += o2 >= o1
    low = np.minimum(o1, o2)
    o3 += o3 >= low
    o3 += o3 >= np.maximum(o1, o2)
    offsets += members
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


def optimize_shifts_global(fs: FrequencySet, d: int, scheme: str, generations: int | None = None,
                           seed=0) -> OptimizeResult:
    """The first try, then differential evolution (rand/1/bin) over the node box and a local polish.

    Before drawing anything, it scores :func:`~shiftrules.epsr.scaled_equidistant_nodes`,
    which may lie outside the box.  Within ``DUAL_GAP`` of :func:`weighted_lower_bound`
    (as for {1..r}) they are returned with ``iterations`` 0, else they replace a higher result.

    The population has 15 r members.  Each generation draws one trial per
    member from the current population only (Storn & Price 1997; SciPy's
    ``updating='deferred'``), then scores all trials in one
    :func:`stacked_objective` call, so a generation is a single stacked
    solve; a trial replaces its member when it is no worse.  Singular
    candidates get objective +inf.  Deterministic for a given seed.  The
    differential weight is drawn once per generation from ``_DE_MUTATION``
    (dither), which converges markedly faster at dimension >= 4 while
    keeping the strategy rand/1/bin.  A generation makes 4 draws: the
    weight (``uniform``), the partners (one ``integers`` call, see
    :func:`_partners`), the crossover mask (``random``) and each member's
    forced crossover coordinate (``integers``); only when a mutant left the
    box does a ``uniform`` resample of its coordinates come between the
    partners and the mask.  These draws and their order are part of the
    seeded-output contract.
    A weighted search stops as soon as its best member is within the
    relative gap ``DUAL_GAP`` of :func:`weighted_lower_bound`, which
    certifies it near-optimal; every search stops once the population's
    objective spread falls to 1e-12 of the best value, or at the cap
    ``generations`` (default max(400, 300 r)).  ``iterations`` counts the
    generations run, and ``stopped_at_cap`` is set when the search ran to
    the cap without any of these stops.  The best member is then polished by
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
    probes.  At most ceil(log2(generations / _PROBE_FIRST)) probes run.

    ``converged`` is set when the polish converged or the result is within
    ``DUAL_GAP`` of the bound.  When the frequencies are the integer set
    {1..r}, the result carries the max-component error against the
    equidistant reference nodes (canonical form on both sides).
    """
    scheme = _norm_scheme(scheme)
    parity = _parity_of(d)
    dim = fs.r
    npop = 15 * dim
    if generations is None:
        # binds for uniform searches and for sets whose box optimum lies
        # above Omega_max^d, where the spread shrinks slowly at high dimension
        generations = max(400, 300 * dim)
    if generations < 1:
        raise ValueError(f"generations must be at least 1, not {generations}")
    lo, hi = _box(parity)
    uniform = scheme == "uniform"
    # the uniform scheme has no bound; -inf never certifies a member
    bound = weighted_lower_bound(fs, d) if scheme == "weighted" else -math.inf
    first = scaled_equidistant_nodes(fs, parity)
    f_first = float(_values(first.as_array()[None], fs, d, uniform)[0])
    if f_first - bound <= DUAL_GAP * bound:
        return OptimizeResult(first, f_first, 0, True, _equidistant_error(first, fs))

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

    members = _partner_bounds(npop)[1]
    f_lo, f_hi = _DE_MUTATION
    probe_at = _PROBE_FIRST if scheme == "weighted" else math.inf
    result = None
    gens_run = 0
    stopped_at_cap = False
    for gen in range(generations):
        gens_run = gen + 1
        f_weight = float(rng.uniform(f_lo, f_hi))
        p1, p2, p3 = pop[_partners(rng, npop)]
        mutant = p1 + f_weight * (p2 - p3)
        outside = (mutant < lo) | (mutant > hi)
        n_out = np.count_nonzero(outside)
        if n_out:
            mutant[outside] = rng.uniform(lo, hi, size=n_out)
        cross = rng.random((npop, dim)) < _DE_CROSSOVER
        cross[members, rng.integers(dim, size=npop)] = True
        trial = np.where(cross, mutant, pop)
        f_trial = stacked_objective(trial, fs, d, scheme)
        better = f_trial <= fit
        np.copyto(pop, trial, where=better[:, None])
        np.copyto(fit, f_trial, where=better)
        best = float(fit.min())
        if best - bound <= DUAL_GAP * bound:
            break
        # Python floats: an all-inf population's NaN spread compares False without a warning
        if float(fit.max()) - best <= 1e-12 * max(1.0, abs(best)):
            break
        # the final polish follows the last generation, so no probe there
        if gens_run == probe_at and gens_run < generations:
            probe_at *= 2
            result = polish_best(max_iters=_PROBE_ITERS)
            if result[1] - bound <= DUAL_GAP * bound:
                break
            result = None
    else:
        stopped_at_cap = True

    best_nodes, best_f, converged = result if result is not None else polish_best()
    if math.isfinite(best_f):
        best_nodes, best_f = _snap_to_pi(best_nodes, best_f, uniform, fs, d)
    if f_first < best_f:
        best_nodes, best_f, converged = first, f_first, False
    converged = converged or best_f - bound <= DUAL_GAP * bound
    return OptimizeResult(best_nodes, best_f, gens_run, bool(converged), _equidistant_error(best_nodes, fs),
                          stopped_at_cap)


def _equidistant_error(nodes: ShiftNodes, fs: FrequencySet) -> float | None:
    """Max-component distance to the equidistant nodes, canonical on both sides, when fs is {1..r}."""
    if fs.is_consecutive_integers():
        ref = equidistant_nodes(fs.r, nodes.parity).as_array()
        return float(np.max(np.abs(canonical_nodes(nodes.as_array()) - canonical_nodes(ref))))


def weighted_lower_bound(fs: FrequencySet, d: int) -> float:
    """Omega_max^d, a lower bound of F_wgt at every node set (weak duality).

    At any nodes x the coefficients satisfy A(x)^T b = rhs, so every y with
    ||A(x) y||_inf <= 1 gives rhs . y = b . A(x) y <= ||b||_1 = F_wgt(x)
    (Theis, Quantum 7, 1070, 2023).  For y = +-e_max, the unit vector of the
    largest frequency's column, A(x) y is +-sin(Omega_max x_i) or
    +-cos(Omega_max x_i), bounded by 1 for every x, so y is feasible at
    every node set; with the sign of the rhs entry its dual value is
    Omega_max^d, for any frequency set.  Raises ValueError naming d and
    Omega_max when that power overflows a double.
    """
    _parity_of(d)
    return _top_power(fs, d)


def scan_landscape(fs: FrequencySet, d: int, scheme: str, n: int = 61):
    """F_unif or F_wgt (``scheme``) on an n x n interior grid over two free nodes.

    Odd parity requires r = 2 (grid over (x_1, x_2)); even parity requires
    r = 2 with x_0 pinned at 0.  Singular configurations are reported as inf.
    The objectives do not depend on the order of the nodes, so only the
    n (n + 1) / 2 pairs i <= j are solved, in one stacked call at the
    ascending nodes (grid[i], grid[j]), and value[j, i] repeats value[i, j]:
    the matrix is symmetric, and each entry is exactly the scalar objective
    at the ascending pair.

    Returns (grid_points, value_matrix) with value[i, j] at
    (x1 = grid[i], x2 = grid[j]).
    """
    if fs.r != 2:
        raise ValueError("landscape scan covers the two-free-node case (r = 2)")
    grid = np.linspace(0.0, np.pi, n + 2)[1:-1]
    i, j = np.triu_indices(n)
    values = np.empty((n, n))
    values[i, j] = values[j, i] = stacked_objective(np.stack([grid[i], grid[j]], axis=1), fs, d, scheme)
    return grid, values
