"""Reproduction experiments on the XXZ/HVA testbed.

Five canned experiments, each emitting machine-readable CSV (and optionally a
companion gnuplot script):

* ``result1``   -- noise-free check: shift-rule derivatives of every circuit
  parameter against the exact slice derivative read off the slice's
  Fourier-component Grams, orders 1..6.
* ``result2``   -- uniform vs weighted shot allocation at the classical
  equidistant nodes: repeated sampled derivative estimates for the first two
  parameters.
* ``result3``   -- equidistant vs fixed random nodes under the weighted
  scheme.
* ``landscape`` -- grids of the uniform or weighted objective (``scheme``)
  over two free nodes for orders 1..6, each unordered node pair solved once
  and mirrored (see :func:`variance.scan_landscape`).
* ``de-sweep``  -- differential-evolution global search vs the equidistant
  reference across (r, d) combinations.

Every run is deterministic given the config seed: each table of sampled
estimates draws from the child streams of one seed sequence keyed by the
seed and the table's place in the experiment, and its bytes do not depend
on the CPU count (see :func:`sampled_estimates` for the stream layout).
"""

from __future__ import annotations

import datetime
import functools
import itertools
import json
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import epsr, qsim, variance
from .spectra import FrequencySet, detect_equidistant, integer_frequencies

__all__ = [
    "ExperimentConfig",
    "EXPERIMENT_IDS",
    "RESULT3_RANDOM_NODES",
    "random_base_params",
    "xxz_hva_setup",
    "valid_nodes_for",
    "sampled_estimates",
    "run_experiment",
]

#: Per experiment id: the run settings it reads besides ``experiment`` and
#: ``out_dir``.  ``experiment`` rejects a flag for any other setting.
_EXPERIMENT_READS = {
    "result1": ("q", "p", "delta", "seed"),
    "result2": ("q", "p", "delta", "seed", "n_total", "repetitions", "params", "method"),
    "result3": ("q", "p", "delta", "seed", "n_total", "repetitions", "params", "method"),
    "landscape": ("scheme",),
    "de-sweep": ("scheme", "seed", "r_max", "d_max"),
}

EXPERIMENT_IDS = tuple(_EXPERIMENT_READS)

#: Fixed "random" node sets compared against the equidistant nodes in
#: result3, keyed by r.  Drawn once from a seeded stream and frozen; both are
#: nonsingular and their weighted objectives exceed the optimal value r by
#: factors mirroring the spread seen in practice.
RESULT3_RANDOM_NODES: dict[int, tuple[tuple[float, ...], ...]] = {
    2: (
        (0.537299745199, 0.704881354807),
        (1.890334656657, 1.990525713141),
    ),
    4: (
        (1.096948636022, 1.352471555537, 1.643004064611, 2.704730076756),
        (0.065752000218, 0.465980534447, 2.340250843261, 2.51529245263),
    ),
}

#: Level probabilities below this are set to exactly 0 before multinomial
#: sampling.  A level that is impossible by symmetry still gets a round-off
#: probability ||P_lambda psi||^2 from the eigenvectors and states; the
#: generator skips exact zeros but draws for any positive entry, so without
#: the floor a round-off change in a state rewrites every later draw.  In
#: the testbed level tables (all 8 parameters, d = 1, 2, base seeds 0-2, at
#: the result1/result2 nodes and result3's random nodes) round-off entries
#: stay below 5.6e-29, 4.3e-27 and 6.6e-26 at q = 5, 8, 10, and genuine
#: entries stay above 4.3e-5, 5.2e-6 and 1.0e-5, so 1e-23 sits in that gap
#: with a factor >= 150 to spare below and >= 1e17 above.  The
#: floor drops a mass of at most 2**q * 1e-23 per table: below 1e-7 shots
#: in expectation at 10**12 shots and q = 12, which no statistic can see.
_PROBABILITY_FLOOR = 1e-23


class ConfigError(ValueError):
    """An invalid run setting: a value no run accepts, found before anything is built."""


#: The numeric run settings: the test each value must pass and what it must be.
_NUMERIC_CHECKS = {
    "q": (lambda v: 3 <= v <= qsim.MAX_QUBITS, f"in 3..{qsim.MAX_QUBITS}"),
    "seed": (lambda v: v >= 0, "non-negative"),
    "d": (lambda v: v >= 1, "at least 1"),
    **dict.fromkeys(("delta", "xbar"), (np.isfinite, "finite")),
    **dict.fromkeys(("p", "n_total", "repetitions", "r_max", "d_max"), (lambda v: v > 0, "positive")),
}


def _flag(name: str) -> str:
    """The CLI flag of a run setting."""
    return "--id" if name == "experiment" else "--" + name.replace("_", "-")


def _check_run_settings(s: dict) -> None:
    """Raise ConfigError, naming the flag, at the first invalid setting in ``s``.

    ``s`` maps ExperimentConfig field names, and the ``param``, ``xbar``
    and ``d`` of ``estimate``, to values; absent keys and None values pass.
    ``ExperimentConfig``, ``freq --circuit`` and ``estimate`` check their
    settings here, before they build anything.
    """
    if "experiment" in s and s["experiment"] not in EXPERIMENT_IDS:
        raise ConfigError(f"--id: unknown experiment {s['experiment']!r}; choose from {EXPERIMENT_IDS}")
    for name, (ok, what) in _NUMERIC_CHECKS.items():
        if s.get(name) is not None and not ok(s[name]):
            raise ConfigError(f"{_flag(name)} must be {what}, not {s[name]}")
    try:
        variance._norm_scheme(s.get("scheme", "weighted"))
    except ValueError as exc:
        raise ConfigError(f"--scheme: {exc}") from None
    if s.get("method", "multinomial") not in ("multinomial", "gaussian"):
        raise ConfigError(f"--method: unknown sampling method {s['method']!r}")
    for name in ("param", "params"):
        if s.get(name) is None:
            continue
        indices = [s[name]] if name == "param" else list(s[name])
        if not indices:
            raise ConfigError(f"{_flag(name)} needs at least one parameter index")
        bad = [j for j in indices if not 0 <= j < 4 * s["p"]]
        if bad:
            raise ConfigError(f"{_flag(name)} {bad} out of range: the p={s['p']} circuit has "
                              f"parameters 0..{4 * s['p'] - 1}")
        repeated = sorted({j for j in indices if indices.count(j) > 1})
        if repeated:
            raise ConfigError(f"{_flag(name)} repeats index {', '.join(map(str, repeated))}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; its field defaults are the CLI's, and construction checks every field."""

    experiment: str
    q: int = 5
    p: int = 2
    delta: float = 0.5
    seed: int = 0
    n_total: int = 1000
    repetitions: int = 500
    params: tuple[int, ...] = (0, 1)
    scheme: str = "weighted"
    method: str = "multinomial"
    out_dir: str = "."
    r_max: int = 8
    d_max: int = 8

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(j) for j in self.params))
        _check_run_settings(vars(self))


def random_base_params(p: int, seed) -> np.ndarray:
    """The published base parameter vector of a depth-p circuit: uniform on [-pi, pi), seeded."""
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, 4 * p)


def xxz_hva_setup(q: int, p: int, delta: float):
    """Circuit and observable of the testbed problem."""
    return qsim.build_hva_circuit(q, p), qsim.build_xxz_hamiltonian(q, delta)


def valid_nodes_for(fs: FrequencySet, d: int, seed=0) -> epsr.ShiftNodes:
    """A nonsingular node set for the frequency set and order.

    An equidistant set takes :func:`epsr.scaled_equidistant_nodes` with no
    solve, since they are nonsingular; any other set tries them first and
    falls back to seeded random draws until the conditioning check passes.
    """
    first = epsr.scaled_equidistant_nodes(fs, epsr._order_parity(d))
    equidistant = detect_equidistant(fs) is not None
    return first if equidistant else _draw_valid_nodes(fs, d, np.random.default_rng(seed), first=first)


def _draw_valid_nodes(fs: FrequencySet, d: int, rng, first: epsr.ShiftNodes | None = None) -> epsr.ShiftNodes:
    """``first``, if given, then seeded random node sets until one passes the conditioning check.

    Odd draws are r sorted uniforms on [0.05, pi - 0.05]; even draws pin
    x_0 = 0 and sort r uniforms on [0.05, pi).  The search gives up after
    200 tries, ``first`` included.
    """
    parity = epsr._order_parity(d)
    nodes = first
    for _ in range(200):
        if nodes is None:
            vals = tuple(sorted(rng.uniform(0.05, np.pi - 0.05 if parity == "odd" else np.pi, fs.r)))
            nodes = epsr.ShiftNodes(parity, vals if parity == "odd" else (0.0, *vals))
        try:
            epsr.make_rule(nodes, fs, d)  # memoised: the caller's make_rule reuses this solve
            return nodes
        except epsr.SingularNodesError:
            nodes = None
    raise RuntimeError(f"could not find valid nodes for frequencies {fs.frequencies}, d={d}")


# ---------------------------------------------------------------------------
# output helpers

#: Rows per ``write`` of :func:`_write_csv`.  One write per row pays a call
#: per row; one write of the whole body holds a second copy of it in memory.
_CSV_BLOCK_ROWS = 512


def _column_text(column) -> list[str]:
    """A column's cells as text, in :func:`_write_csv`'s format.

    A float column's distinct bit patterns are formatted by one ``%`` over a
    repeated ``"%.17g\\n"`` template, split back into cells and gathered to
    the rows; the cells are those of one ``"%.17g" % v`` per value.
    """
    first = column[0] if len(column) else None
    if isinstance(first, (int, np.integer)):
        return list(map("%d".__mod__, column))
    if not isinstance(first, (float, np.floating)):
        return list(map(str, column))
    bits, inverse = np.unique(np.asarray(column, dtype=np.float64).view(np.int64), return_inverse=True)
    cells = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")[:-1]
    return np.array(cells, dtype=object)[inverse].tolist()


def _write_csv(out, table: dict, reproducible: bool, plot=None) -> None:
    """The package's only CSV writer: a header of ``table``'s keys, then one line per row.

    ``table`` maps each header, in order, to a column (an ndarray or a
    sequence) of one common length; a shorter column raises ``ValueError``
    naming it.  A column's first value picks its format: integers ``%d``,
    floats ``%.17g`` (exact for binary64; ``-0``, ``inf``, ``nan``), anything
    else ``str``.  Each column is formatted in one pass (see
    :func:`_column_text`), and the rows go out ``_CSV_BLOCK_ROWS`` at a
    time, one ``write`` per block; the bytes are those of one ``%`` per row.
    ``out`` is a path or an open text stream.  A ``# generated <timestamp>``
    line comes first unless ``reproducible`` is set.  Given ``plot`` lines
    and a path, the gnuplot script ``<stem>.gp`` is written beside the CSV,
    after a ``set datafile separator ','`` line.
    """
    n_rows = max(map(len, table.values()), default=0)
    for name, column in table.items():
        if len(column) != n_rows:
            raise ValueError(f"column {name!r} has {len(column)} rows, not {n_rows}")
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w") as fh:
            _write_csv(fh, table, reproducible)
        if plot:
            with open(os.path.splitext(out)[0] + ".gp", "w") as fh:
                fh.write("\n".join(["set datafile separator ','", *plot]) + "\n")
        return
    if not reproducible:
        out.write(f"# generated {datetime.datetime.now().isoformat()}\n")
    out.write(",".join(table) + "\n")
    rows = map(",".join, zip(*map(_column_text, table.values())))
    for _ in range(0, n_rows, _CSV_BLOCK_ROWS):
        out.write("\n".join(itertools.islice(rows, _CSV_BLOCK_ROWS)) + "\n")


def _kdensity(name: str, titles) -> str:
    """A gnuplot ``plot`` of one kernel-density curve per column 2, 3, ... of ``name``."""
    return "plot " + ", \\\n     ".join(f"'{name}' using {k} skip 1 smooth kdensity title '{t}'"
                                      for k, t in enumerate(titles, 2))


_DENSITY_LABELS = ("set xlabel 'derivative estimate'", "set ylabel 'density'")


def _write_config_echo(cfg: ExperimentConfig, theta, extra: dict | None = None) -> None:
    doc = asdict(cfg)
    if theta is not None:
        doc["base_params"] = np.asarray(theta).tolist()
    if extra:
        doc.update(extra)
    path = os.path.join(cfg.out_dir, f"{cfg.experiment.replace('-', '_')}_config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sampled derivative estimates shared by result2 / result3 / the CLI

def _level_tables(observable: qsim.PauliSumObservable, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The observable's eigenvalue levels and one outcome table per state.

    Row i holds ||P_lambda psi_i||^2 per level (see
    :func:`qsim._eigensystem`), entries below ``_PROBABILITY_FLOOR`` set to
    0, normalised to sum 1.
    """
    levels, starts, evecs = qsim._eigensystem(observable.terms)
    pr = np.add.reduceat(np.abs(states @ evecs.conj()) ** 2, starts, axis=1)
    pr[pr < _PROBABILITY_FLOOR] = 0.0
    return levels, pr / pr.sum(axis=1, keepdims=True)


def _run_jobs(jobs: list) -> list:
    """The results of the zero-argument callables ``jobs``, in order, computed on up to one thread per CPU.

    The CPUs are those the process may run on (``os.cpu_count()`` where
    affinity is unavailable); the calling thread takes jobs too, and no more
    threads start than there are jobs.  After every thread has stopped, the
    first failure in job order is raised.
    """
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n_threads, results = min(n_cpus, len(jobs)), [None] * len(jobs)

    def work(first):
        for k in range(first, len(jobs), n_threads):  # thread t takes jobs t, t + n_threads, ...
            try:
                results[k] = jobs[k]()
            except Exception as exc:
                results[k] = exc

    threads = []
    try:
        for first in range(1, n_threads):
            t = threading.Thread(target=work, args=(first,))
            t.start()
            threads.append(t)
        work(0)
    finally:
        for t in threads:
            t.join()
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def sampled_estimates(sl: qsim.CostSlice, rule: epsr.PSRRule, xbar: float, schemes,
                      n_total: int, repetitions: int, seed_key,
                      method: str = "multinomial") -> dict[str, np.ndarray]:
    """Repeated sampled derivative estimates, one column per allocation scheme.

    This is the package's shot model.  ``multinomial`` measures the
    observable projectively: each shift's shots are a multinomial draw over
    its eigenvalue levels with probabilities ||P_lambda psi||^2 (see
    :func:`_level_tables`; the levels are cached per observable, and
    probabilities below ``_PROBABILITY_FLOOR`` count as 0), so the draws do
    not depend on the basis ``eigh`` picks inside a degenerate eigenspace.
    ``gaussian`` replaces each shift's shot mean by a normal draw with the
    exact mean and one-shot variance.

    Shots are split by :func:`variance.allocate` over the rule's expanded
    shifts: per node for ``uniform``, so the draws have the variance that
    :func:`variance.predicted_variance` gives for both schemes.

    Stream layout: ``np.random.SeedSequence(seed_key)`` spawns one child
    stream per (scheme, expanded shift), in scheme order, then rule shift
    order; a shift with a zero coefficient or zero shots keeps its child
    and draws nothing.  Each shift draws all ``repetitions`` at once from
    its own child, and the shifts draw concurrently (see :func:`_run_jobs`);
    each scheme's column sums their parts in rule shift order.  So no
    shift's draws depend on another's, the bytes do not depend on the CPU
    count, and the first k repetitions are the same for any count >= k.
    Before any state is built or shot drawn, a rule that does not cover
    ``sl.frequencies`` raises ValueError, as in :func:`epsr.apply_rule`,
    and so do an xbar that rounds the rule's shifts away
    (:func:`epsr._shifted_points`) and an ``n_total`` below the number of
    shifts with a nonzero coefficient, which would leave some of their terms
    without a shot.
    """
    epsr._check_coverage(rule, sl)
    gamma = np.asarray(rule.expanded_coeffs)
    active = np.count_nonzero(gamma)
    if n_total < active:
        raise ValueError(f"n_total {n_total} is below the {active} shifts with a nonzero coefficient; "
                         "each needs at least one shot")
    points = epsr._shifted_points(rule, xbar)
    if method == "multinomial":
        levels, tables = _level_tables(sl.observable, sl.state(points))
    elif method == "gaussian":
        tables = list(zip(sl(points), sl.one_shot_variance(points)))
    else:
        raise ValueError(f"unknown sampling method {method!r}")

    # the worker threads draw and do arithmetic only: every shiftrules call
    # stays on the calling thread
    def draw(child, g, table, n):
        rng = np.random.default_rng(child)
        if method == "multinomial":
            # a row sum, not a BLAS product, so that each row's rounding does not depend on the row count
            return g * (rng.multinomial(n, table, size=repetitions) * levels).sum(axis=1) / n
        mean, var = table
        return g * rng.normal(mean, np.sqrt(var / n), size=repetitions)

    m = len(gamma)
    children = np.random.SeedSequence(seed_key).spawn(len(schemes) * m)
    jobs, column = [], []
    for i, s in enumerate(schemes):
        counts = variance.integer_shot_counts(variance.allocate(s, gamma, n_total, rule.expanded_shifts))
        for child, g, table, n in zip(children[i * m:(i + 1) * m], gamma, tables, counts):
            if g != 0.0 and n != 0:
                jobs.append(functools.partial(draw, child, g, table, int(n)))
                column.append(i)
    acc = np.zeros((len(schemes), repetitions))
    for i, part in zip(column, _run_jobs(jobs)):
        acc[i] += part
    return {s: acc[i] for i, s in enumerate(schemes)}


# ---------------------------------------------------------------------------
# experiment runners

def _run_result1(cfg: ExperimentConfig, reproducible: bool, emit_gnuplot: bool):
    circuit, obs = xxz_hva_setup(cfg.q, cfg.p, cfg.delta)
    theta = random_base_params(cfg.p, cfg.seed)
    names = qsim.hva_parameter_names(cfg.p)
    rows = []
    for j in range(circuit.n_params):
        sl = qsim.CostSlice(circuit, obs, theta, j)
        fs = sl.frequencies
        for d in range(1, 7):
            rule = epsr.make_rule(valid_nodes_for(fs, d, seed=cfg.seed + 31 * j + d), fs, d)
            got = epsr.apply_rule(rule, sl, theta[j])
            ref = sl.derivative(d, theta[j])
            rows.append((j, names[j], d, got, ref, abs(got - ref)))
    plot = ["set logscale y", "set xlabel 'derivative order d'", "set ylabel '|rule - exact|'",
            "plot 'result1_errors.csv' using 3:6 skip 1 with points title 'error'"]
    header = ("param_index", "param_name", "d", "epsr", "reference", "abs_error")
    _write_csv(os.path.join(cfg.out_dir, "result1_errors.csv"), dict(zip(header, zip(*rows))), reproducible,
               plot if emit_gnuplot else None)
    _write_config_echo(cfg, theta)
    return rows


def _run_result2(cfg: ExperimentConfig, reproducible: bool, emit_gnuplot: bool):
    circuit, obs = xxz_hva_setup(cfg.q, cfg.p, cfg.delta)
    theta = random_base_params(cfg.p, cfg.seed)
    names = qsim.hva_parameter_names(cfg.p)
    out = {}
    for j in cfg.params:
        sl = qsim.CostSlice(circuit, obs, theta, j)
        rule = epsr.make_rule(valid_nodes_for(sl.frequencies, 1, seed=cfg.seed), sl.frequencies, 1)
        out[j] = sampled_estimates(sl, rule, theta[j], ("uniform", "weighted"), cfg.n_total,
                                   cfg.repetitions, [cfg.seed, 2, j], cfg.method)
    # no CSV is written unless every parameter's estimates were drawn
    for j, ests in out.items():
        name = f"result2_{names[j]}.csv"
        plot = [*_DENSITY_LABELS, _kdensity(name, ("uniform", "weighted"))]
        _write_csv(os.path.join(cfg.out_dir, name), {"repetition": range(cfg.repetitions), **ests},
                   reproducible, plot if emit_gnuplot else None)
    _write_config_echo(cfg, theta)
    return out


def _run_result3(cfg: ExperimentConfig, reproducible: bool, emit_gnuplot: bool):
    circuit, obs = xxz_hva_setup(cfg.q, cfg.p, cfg.delta)
    theta = random_base_params(cfg.p, cfg.seed)
    names = qsim.hva_parameter_names(cfg.p)
    out = {}
    node_echo = {}
    for j in cfg.params:
        sl = qsim.CostSlice(circuit, obs, theta, j)
        fs = sl.frequencies
        if not fs.is_consecutive_integers():
            raise ValueError("result3 compares against equidistant nodes; parameter "
                             f"{j} has frequencies {fs.frequencies}")
        r = fs.r
        if r in RESULT3_RANDOM_NODES:
            randoms = RESULT3_RANDOM_NODES[r]
        else:
            rng = np.random.default_rng([cfg.seed, 3, r])
            randoms = [_draw_valid_nodes(fs, 1, rng).values for _ in range(2)]
        node_sets = {"equidistant": epsr.equidistant_nodes(r, "odd").values,
                     "random1": tuple(randoms[0]), "random2": tuple(randoms[1])}
        node_echo[names[j]] = {k: list(v) for k, v in node_sets.items()}
        cols = {}
        for tag_idx, (tag, vals) in enumerate(node_sets.items()):
            rule = epsr.make_rule(epsr.ShiftNodes("odd", vals), fs, 1)
            ests = sampled_estimates(sl, rule, theta[j], ("weighted",), cfg.n_total,
                                     cfg.repetitions, [cfg.seed, 3, j, tag_idx], cfg.method)
            cols[tag] = ests["weighted"]
        out[j] = cols
    # no CSV is written unless every parameter's estimates were drawn
    for j, cols in out.items():
        name = f"result3_{names[j]}.csv"
        plot = [*_DENSITY_LABELS, _kdensity(name, ("equidistant", "random 1", "random 2"))]
        _write_csv(os.path.join(cfg.out_dir, name), {"repetition": range(cfg.repetitions), **cols},
                   reproducible, plot if emit_gnuplot else None)
    _write_config_echo(cfg, theta, {"node_sets": node_echo})
    return out


def _run_landscape(cfg: ExperimentConfig, reproducible: bool, emit_gnuplot: bool):
    fs = integer_frequencies(2)
    paths = []
    for d in range(1, 7):
        grid, values = variance.scan_landscape(fs, d, cfg.scheme)
        x1, x2 = np.meshgrid(grid, grid, indexing="ij")
        name = f"landscape_d{d}.csv"
        paths.append(os.path.join(cfg.out_dir, name))
        plot = ["set view map", "set xlabel 'x1'", "set ylabel 'x2'",
                f"splot '{name}' using 1:2:3 skip 1 with points palette pt 5 title 'F'"]
        _write_csv(paths[-1], {"x1": x1.ravel(), "x2": x2.ravel(), "F": values.ravel()}, reproducible,
                   plot if emit_gnuplot else None)
    _write_config_echo(cfg, None)
    return paths


def _run_de_sweep(cfg: ExperimentConfig, reproducible: bool, emit_gnuplot: bool):
    rows = []
    for r in range(1, cfg.r_max + 1):
        fs = integer_frequencies(r)
        for d in range(1, cfg.d_max + 1):
            res = variance.optimize_shifts_global(fs, d, cfg.scheme, seed=[cfg.seed, 5, r, d])
            rows.append((r, d, epsr._order_parity(d), res.equidistant_error,
                         res.objective, float(r) ** d))
    plot = ["set view map", "set xlabel 'r'", "set ylabel 'd'", "set logscale cb",
            "splot 'de_sweep_errors.csv' using 1:2:4 skip 1 with points palette pt 5 ps 4 "
            "title 'max node error'"]
    header = ("r", "d", "parity", "max_node_error", "objective", "target")
    _write_csv(os.path.join(cfg.out_dir, "de_sweep_errors.csv"), dict(zip(header, zip(*rows))), reproducible,
               plot if emit_gnuplot else None)
    _write_config_echo(cfg, None)
    return rows


_RUNNERS = {
    "result1": _run_result1,
    "result2": _run_result2,
    "result3": _run_result3,
    "landscape": _run_landscape,
    "de-sweep": _run_de_sweep,
}


def run_experiment(cfg: ExperimentConfig, reproducible: bool = False,
                   emit_gnuplot: bool = False):
    """Run one canned experiment, writing its outputs into ``cfg.out_dir``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return _RUNNERS[cfg.experiment](cfg, reproducible, emit_gnuplot)
