"""Output checks for every CLI call the benchmark makes.

Each checker reads the files one call wrote and returns a ``Verdict``: how
many of the call's work items failed and why.  Items are the unit the
workload counts (searches, grid points, derivatives, sampled estimates).
Expected values come from ``reference`` (numpy only) or from closed-form
facts such as the r^d weighted optimum; the checkers never call shiftrules.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference as ref

# tolerances fixed with the benchmark; never loosened to pass a run
DE_NODE_ERROR = 1e-3
DE_OBJECTIVE_REL = 1e-6
RULE_OBJECTIVE_REL = 1e-9
RULE_EXACT_SCALED = 1e-8
LANDSCAPE_REL = 1e-9
LANDSCAPE_SPOTS = 64
TESTBED_SCALED = 1e-6
MEAN_STANDARD_ERRORS = 5.0
RATIO_REL = 0.35
RESULT3_MIN_FACTOR = 2.0


@dataclass
class Verdict:
    items: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, n: int, message: str) -> None:
        self.failed = min(self.items, self.failed + n)
        self.messages.append(message)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    table = list(csv.reader(lines))
    return (table[0], table[1:]) if table else ([], [])


# ---------------------------------------------------------------------------
# node search


def check_de_sweep(path: Path, r_max: int, d_max: int) -> Verdict:
    """Rows of ``de_sweep_errors.csv``: every (r, d) present and at the r^d optimum."""
    v = Verdict(r_max * d_max)
    try:
        header, rows = _rows(path)
    except OSError as exc:
        v.fail(v.items, f"{path.name}: {exc}")
        return v
    if header != ["r", "d", "parity", "max_node_error", "objective", "target"]:
        v.fail(v.items, f"{path.name}: header {header}")
        return v
    seen = set()
    for row in rows:
        try:
            r, d = int(row[0]), int(row[1])
            err, obj, target = float(row[3]), float(row[4]), float(row[5])
        except (ValueError, IndexError):
            v.fail(1, f"{path.name}: malformed row {row}")
            continue
        if (r, d) in seen or not (1 <= r <= r_max and 1 <= d <= d_max):
            v.fail(1, f"{path.name}: unexpected row r={r} d={d}")
            continue
        seen.add((r, d))
        opt = float(r) ** d
        problems = []
        if row[2] != ("odd" if d % 2 else "even"):
            problems.append(f"parity {row[2]}")
        if target != opt:
            problems.append(f"target {target} != {opt}")
        if not err <= DE_NODE_ERROR:
            problems.append(f"max_node_error {err:.3e} > {DE_NODE_ERROR}")
        if not abs(obj - opt) <= DE_OBJECTIVE_REL * opt:
            problems.append(f"objective {obj!r} not within {DE_OBJECTIVE_REL}*r^d of {opt}")
        if problems:
            v.fail(1, f"{path.name} r={r} d={d}: " + "; ".join(problems))
    missing = r_max * d_max - len(seen)
    if missing > 0:
        v.fail(missing, f"{path.name}: {missing} (r, d) rows missing")
    return v


def check_unif_rule(path: Path, freqs: tuple[float, ...], seed: int) -> Verdict:
    """A ``rule --optimize unif --d 1`` document: objective, exactness, optimality."""
    v = Verdict(1)
    try:
        doc = json.loads(path.read_text())
        nodes = np.asarray(doc["nodes"], dtype=float)
        b = np.asarray(doc["b"], dtype=float)
        phi = np.asarray(doc["expanded"]["phi"], dtype=float)
        gamma = np.asarray(doc["expanded"]["gamma"], dtype=float)
        objective = float(doc["objective"])
        doc_freqs = tuple(float(w) for w in doc["frequencies"])
        order = int(doc["order"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        v.fail(1, f"{path.name}: unreadable rule document ({exc})")
        return v
    problems = []
    if doc_freqs != tuple(freqs) or order != 1 or nodes.size != len(freqs) or b.size != len(freqs):
        problems.append(f"shape: frequencies {doc_freqs}, order {order}, {nodes.size} nodes, {b.size} b")
    half_norm = 0.5 * float(b @ b)
    if not abs(objective - half_norm) <= RULE_OBJECTIVE_REL * max(1.0, half_norm):
        problems.append(f"objective {objective!r} != |b|^2/2 = {half_norm!r}")
    if phi.size != gamma.size or phi.size == 0:
        problems.append("expanded phi/gamma lengths differ")
    else:
        rng = np.random.default_rng([seed, 11, len(freqs)])
        poly = ref.random_poly(freqs, rng)
        xbar = float(rng.uniform(-np.pi, np.pi))
        got = float(gamma @ ref.poly_value(poly, freqs, xbar + phi))
        want = ref.poly_first_derivative(poly, freqs, xbar)
        _, a, bb = poly
        scale = max(1.0, float(np.sum(np.asarray(freqs) * (np.abs(a) + np.abs(bb)))))
        if not abs(got - want) / scale <= RULE_EXACT_SCALED:
            problems.append(f"rule not exact: scaled error {abs(got - want) / scale:.3e}")
    r = len(freqs)
    if tuple(freqs) == tuple(float(k) for k in range(1, r + 1)):
        b_eq, _ = ref.rule_coefficients(ref.equidistant_free_nodes(r, 1), freqs, 1)
        f_eq = 0.5 * float(b_eq @ b_eq)
        if not objective <= f_eq * (1 + 1e-12):
            problems.append(f"objective {objective!r} above F_unif at equidistant nodes {f_eq!r}")
    if problems:
        v.fail(1, f"{path.name} {freqs}: " + "; ".join(problems))
    return v


# ---------------------------------------------------------------------------
# landscape


def landscape_value(x1: float, x2: float, d: int, scheme: str):
    """Own objective at free nodes (x1, x2) for {1, 2}; None when singular."""
    b, cond = ref.rule_coefficients((x1, x2), (1.0, 2.0), d)
    if b is None:
        return None, cond
    return (float(np.sum(np.abs(b))) if scheme == "weighted" else 0.5 * float(b @ b)), cond


def check_landscape(path: Path, d: int, scheme: str, seed: int, n: int = 61) -> Verdict:
    """One ``landscape_d<d>.csv``: grid, singular diagonal, symmetry, argmin, spot values."""
    v = Verdict(n * n)
    try:
        header, rows = _rows(path)
        data = np.array([[float(t) for t in row] for row in rows], dtype=float)
    except (OSError, ValueError) as exc:
        v.fail(v.items, f"{path.name}: unreadable ({exc})")
        return v
    if header != ["x1", "x2", "F"] or data.shape != (n * n, 3):
        v.fail(v.items, f"{path.name}: header {header}, {len(rows)} rows (want {n * n})")
        return v
    grid = np.linspace(0.0, np.pi, n + 2)[1:-1]
    if not (np.allclose(data[:, 0], np.repeat(grid, n), rtol=1e-15, atol=0)
            and np.allclose(data[:, 1], np.tile(grid, n), rtol=1e-15, atol=0)):
        v.fail(v.items, f"{path.name}: grid coordinates differ from the {n}x{n} interior grid")
        return v
    values = data[:, 2]
    diagonal = data[:, 0] == data[:, 1]
    if not (np.all(np.isinf(values[diagonal])) and np.all(np.isfinite(values[~diagonal]))):
        v.fail(v.items, f"{path.name}: singular points are not exactly the diagonal")
        return v
    problems = []
    # swapping the two free nodes permutes the system, so F(x1, x2) = F(x2, x1)
    square = values.reshape(n, n)
    off = ~np.eye(n, dtype=bool)
    asym = np.abs(square[off] - square.T[off]) / np.abs(square[off])
    if not np.max(asym) <= LANDSCAPE_REL:
        problems.append(f"F(x1, x2) != F(x2, x1) at {int(np.sum(asym > LANDSCAPE_REL)) // 2} pairs")
    if scheme == "weighted":
        cell = grid[1] - grid[0]
        i = int(np.argmin(values))
        target = ref.equidistant_free_nodes(2, d)
        got = data[i, :2]
        if not any(np.all(np.abs(got - t) <= cell * (1 + 1e-9))
                   for t in (target, target[::-1])):
            problems.append(f"argmin {tuple(map(float, got))} not within one cell of {tuple(target)}")
        floor = 2.0**d
        if not np.min(values) >= floor * (1 - 1e-12):
            problems.append(f"min F {float(np.min(values))!r} below the r^d bound {floor}")
    rng = np.random.default_rng([seed, 13, d, scheme == "weighted"])
    spots = np.concatenate([rng.choice(n * n, LANDSCAPE_SPOTS, replace=False), [int(np.argmin(values))]])
    for s in spots:
        x1, x2, got = (float(t) for t in data[s])
        want, cond = landscape_value(x1, x2, d, scheme)
        if want is None:
            if np.isfinite(got):
                problems.append(f"({x1:.6g}, {x2:.6g}) is singular (cond {cond:.2e}) but F = {got!r}")
        elif cond < ref.AMBIGUOUS_COND and not abs(got - want) <= LANDSCAPE_REL * abs(want):
            problems.append(f"({x1:.6g}, {x2:.6g}): F = {got!r}, numpy solve gives {want!r}")
    if problems:
        v.fail(v.items, f"{path.name}: " + "; ".join(problems))
    return v


# ---------------------------------------------------------------------------
# testbed


def check_config_theta(path: Path, theta: np.ndarray) -> str | None:
    try:
        echoed = np.asarray(json.loads(path.read_text())["base_params"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return f"{path.name}: unreadable ({exc})"
    if echoed.shape != theta.shape or not np.array_equal(echoed, theta):
        return f"{path.name}: base_params differ from default_rng(seed).uniform(-pi, pi, 4p)"
    return None


def check_result1(outdir: Path, sim: ref.HvaReference, seed: int, d_max: int = 6) -> Verdict:
    """``result1_errors.csv``: each rule derivative against the FFT spectral derivative."""
    n_params = 4 * sim.p
    v = Verdict(n_params * d_max)
    theta = ref.base_params(sim.p, seed)
    bad_echo = check_config_theta(outdir / "result1_config.json", theta)
    if bad_echo:
        v.fail(v.items, bad_echo)
        return v
    try:
        header, rows = _rows(outdir / "result1_errors.csv")
    except OSError as exc:
        v.fail(v.items, str(exc))
        return v
    if header[:4] != ["param_index", "param_name", "d", "epsr"]:
        v.fail(v.items, f"result1_errors.csv: header {header}")
        return v
    spectra = {}
    seen = set()
    for row in rows:
        try:
            j, d, got = int(row[0]), int(row[2]), float(row[3])
        except (ValueError, IndexError):
            v.fail(1, f"result1 malformed row {row}")
            continue
        if (j, d) in seen or not (0 <= j < n_params and 1 <= d <= d_max):
            v.fail(1, f"result1 unexpected row j={j} d={d}")
            continue
        seen.add((j, d))
        if j not in spectra:
            spectra[j] = sim.slice_spectrum(theta, j)
        want, scale = ref.spectral_derivative(spectra[j], theta[j], d)
        err = abs(got - want) / scale
        if not err <= TESTBED_SCALED:
            v.fail(1, f"result1 param {j} d={d}: rule {got!r}, spectral {want!r}, scaled error {err:.2e}")
    missing = v.items - len(seen)
    if missing > 0:
        v.fail(missing, f"result1: {missing} (param, d) rows missing")
    return v


# ---------------------------------------------------------------------------
# sampling


def _mean_failures(columns: dict[str, np.ndarray], exact: float) -> dict[str, str]:
    out = {}
    for name, col in columns.items():
        se = float(np.std(col, ddof=1)) / math.sqrt(col.size)
        z = abs(float(np.mean(col)) - exact) / se if se > 0 else math.inf
        if not z <= MEAN_STANDARD_ERRORS:
            out[name] = f"{name} mean {np.mean(col):.6g} is {z:.1f} SE from exact {exact:.6g}"
    return out


def _read_estimates(v: Verdict, outdir: Path, label: str, columns: list[str], reps: int):
    """The estimate columns of one CSV, or None after failing all its items."""
    n_items = (len(columns) - 1) * reps
    try:
        header, rows = _rows(outdir / f"{label}.csv")
        data = np.array([[float(t) for t in row] for row in rows], dtype=float)
    except (OSError, ValueError) as exc:
        v.fail(n_items, f"{label}: unreadable ({exc})")
        return None
    if header != columns or data.shape != (reps, len(columns)) \
            or not np.array_equal(data[:, 0], np.arange(reps)):
        v.fail(n_items, f"{label}: header {header}, shape {data.shape}")
        return None
    return {name: data[:, k] for k, name in enumerate(columns) if k > 0}


def check_result2(outdir: Path, sim: ref.HvaReference, seed: int, params, reps: int) -> Verdict:
    """``result2_<name>.csv`` files: unbiased columns and the uniform/weighted variance ratio."""
    v = Verdict(len(params) * 2 * reps)
    theta = ref.base_params(sim.p, seed)
    bad_echo = check_config_theta(outdir / "result2_config.json", theta)
    if bad_echo:
        v.fail(v.items, bad_echo)
        return v
    for j in params:
        label = f"result2_{hva_name(j)}"
        cols = _read_estimates(v, outdir, label, ["repetition", "uniform", "weighted"], reps)
        if cols is None:
            continue
        spectrum = sim.slice_spectrum(theta, j)
        exact, _ = ref.spectral_derivative(spectrum, theta[j], 1)
        bad = _mean_failures(cols, exact)
        freqs = ref.spectrum_frequencies(spectrum)
        r = len(freqs)
        if freqs == list(range(1, r + 1)) and r in (2, 4):
            ratio = float(np.var(cols["uniform"], ddof=1) / np.var(cols["weighted"], ddof=1))
            predicted = (2 * r * r + 1) / (3 * r)
            if not abs(ratio / predicted - 1) <= RATIO_REL:
                msg = f"variance ratio {ratio:.3f}, predicted {predicted:.3f} (r={r})"
                bad = {name: bad.get(name, msg) for name in cols}
        if bad:
            v.fail(len(bad) * reps, f"{label}: " + "; ".join(sorted(set(bad.values()))))
    return v


def check_result3(outdir: Path, sim: ref.HvaReference, seed: int, params, reps: int) -> Verdict:
    """``result3_<name>.csv`` files: unbiased columns, random nodes at least 2x noisier."""
    v = Verdict(len(params) * 3 * reps)
    theta = ref.base_params(sim.p, seed)
    bad_echo = check_config_theta(outdir / "result3_config.json", theta)
    if bad_echo:
        v.fail(v.items, bad_echo)
        return v
    for j in params:
        label = f"result3_{hva_name(j)}"
        cols = _read_estimates(v, outdir, label, ["repetition", "equidistant", "random1", "random2"], reps)
        if cols is None:
            continue
        exact, _ = ref.spectral_derivative(sim.slice_spectrum(theta, j), theta[j], 1)
        bad = _mean_failures(cols, exact)
        base = float(np.var(cols["equidistant"], ddof=1))
        for name in ("random1", "random2"):
            factor = float(np.var(cols[name], ddof=1)) / base
            if not factor >= RESULT3_MIN_FACTOR and name not in bad:
                bad[name] = f"{name} variance factor {factor:.3f} < {RESULT3_MIN_FACTOR}"
        if bad:
            v.fail(len(bad) * reps, f"{label}: " + "; ".join(bad[k] for k in sorted(bad)))
    return v


def hva_name(j: int) -> str:
    return ("theta", "phi", "beta", "gamma")[j % 4] + str(j // 4 + 1)
