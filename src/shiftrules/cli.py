"""Command-line driver.

Subcommands:

* ``freq``       -- frequency set of an eigenvalue list or of a circuit
  parameter, emitted as JSON.
* ``rule``       -- build a shift rule (equidistant, explicit or optimized
  nodes) and emit its JSON document with a ``diagnostics`` block.
* ``estimate``   -- sampled or exact derivative estimates of a circuit
  parameter as CSV rows.
* ``experiment`` -- the canned reproduction experiments (see
  :mod:`shiftrules.experiments`).

Every command is deterministic given ``--seed``; CSV bodies are byte-stable.
CSV files carry a timestamped comment line unless ``--reproducible`` is set;
CSV printed to stdout never does.  Exit codes: 0 success, 2 validation
error, 3 numerical failure (singular nodes), 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import epsr, qsim, variance
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    _de_generations,
    _kdensity,
    _write_csv,
    random_base_params,
    run_experiment,
    sampled_estimates,
    valid_nodes_for,
    xxz_hva_setup,
)
from .spectra import DEFAULT_TOL, FrequencySet, detect_equidistant, positive_difference_frequencies

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


class ConfigError(Exception):
    pass


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse number list {text!r}") from exc


def _build_circuit_context(args):
    if args.circuit != "xxz-hva":
        raise ConfigError(f"unknown circuit {args.circuit!r}; available: xxz-hva")
    circuit, obs = xxz_hva_setup(args.q, args.p, args.delta)
    theta = random_base_params(args.q, args.p, args.seed)
    return circuit, obs, theta


# ---------------------------------------------------------------------------
# freq

def _cmd_freq(args) -> int:
    if (args.eigs is None) == (args.circuit is None):
        raise ValueError("give exactly one of --eigs or --circuit")
    if args.eigs is not None:
        dedup_tol = DEFAULT_TOL if args.dedup_tol is None else args.dedup_tol
        fs = positive_difference_frequencies(_floats(args.eigs), dedup_tol)
    else:
        if args.dedup_tol is not None:
            raise ConfigError("--dedup-tol applies to --eigs only; --circuit reads the "
                              "frequencies off the slice amplitudes")
        circuit, obs, theta = _build_circuit_context(args)
        if args.param is None:
            raise ValueError("--circuit mode needs --param")
        if args.no_prune:
            fs = qsim.slice_frequencies(circuit, args.param)
        else:
            fs = qsim.slice_frequencies(circuit, args.param, obs, theta)
    doc = {
        "frequencies": list(fs.frequencies),
        "r": fs.r,
        "equidistant_step": detect_equidistant(fs),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# rule

def _nodes_from_flags(args, fs: FrequencySet) -> epsr.ShiftNodes | None:
    """The nodes ``--equidistant`` or ``--nodes`` names for order ``--d``, or None."""
    parity = "odd" if args.d % 2 else "even"
    if args.equidistant:
        if not fs.is_consecutive_integers():
            raise ValueError("equidistant nodes require the integer frequencies 1..r")
        return epsr.equidistant_nodes(fs.r, parity)
    if args.nodes is not None:
        return epsr.ShiftNodes(parity, _floats(args.nodes))
    return None


def _rule_from_args(args, fs: FrequencySet):
    sources = [args.equidistant, args.nodes is not None, args.optimize is not None]
    if sum(sources) != 1:
        raise ValueError("give exactly one of --equidistant, --nodes or --optimize")
    extra = {}
    nodes = _nodes_from_flags(args, fs)
    if nodes is None:
        generations = args.generations if args.generations is not None else _de_generations(fs.r)
        res = variance.optimize_shifts_global(
            fs, args.d, args.optimize,
            population=args.population, generations=generations, seed=args.seed)
        nodes = res.nodes
        extra = {"objective": res.objective, "scheme": args.optimize,
                 "equidistant_error": res.equidistant_error, "certificate": res.certificate}
    return epsr.make_rule(nodes, fs, args.d), extra


def _rule_diagnostics(rule: epsr.PSRRule) -> dict:
    """The rule's conditioning, evaluation count and predicted variance per scheme.

    Variances are in units of sigma^2 / N_total (see
    :func:`variance.predicted_variance`).  ``uniform`` is the per-node split,
    r * ||b||^2 for odd orders and (r+1) * ||b||^2 for even ones; for even
    orders that is not the per-shift split over the merged expanded shifts
    that ``estimate --scheme uniform`` draws (19.5 against 18.0 for
    ``--freqs 1,2 --d 2 --equidistant``).  Loading a rule document re-solves
    the rule, so this block is output only.
    """
    return {
        "condition_estimate": rule.diagnostics.condition_estimate,
        "determinant": rule.diagnostics.determinant,
        "evaluation_count": epsr.evaluation_count(rule),
        "predicted_variance": {
            s: variance.predicted_variance(rule.solve_coeffs, rule.parity, s).predicted_scaled_variance
            for s in ("uniform", "weighted")},
    }


def _cmd_rule(args) -> int:
    fs = FrequencySet(_floats(args.freqs))
    rule, extra = _rule_from_args(args, fs)
    doc = json.loads(epsr.rule_to_json(rule))
    doc["diagnostics"] = _rule_diagnostics(rule)
    doc.update(extra)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate

def _cmd_estimate(args) -> int:
    if sum([args.equidistant, args.nodes is not None, args.rule_json is not None]) > 1:
        raise ValueError("give at most one of --equidistant, --nodes or --rule-json")
    circuit, obs, theta = _build_circuit_context(args)
    if args.param is None:
        raise ValueError("--param is required")
    sl = qsim.cost_slice(circuit, obs, theta, args.param)
    xbar = args.xbar if args.xbar is not None else float(theta[args.param])

    fs = qsim.slice_frequencies(circuit, args.param, obs, theta)
    if args.rule_json:
        with open(args.rule_json) as fh:
            rule = epsr.rule_from_json(fh.read())
        # a rule is exact only for slices whose frequencies it was solved for
        have = rule.frequencies.as_array()
        if not all(np.any(np.isclose(w, have, rtol=DEFAULT_TOL, atol=0.0)) for w in fs.frequencies):
            raise ValueError(f"rule frequencies {rule.frequencies.frequencies} do not cover the "
                             f"frequencies {fs.frequencies} of parameter {args.param}")
    else:
        nodes = _nodes_from_flags(args, fs)
        if nodes is None:
            nodes = valid_nodes_for(fs, args.d, seed=args.seed)
        rule = epsr.make_rule(nodes, fs, args.d)

    exact_mode = args.exact or (args.shots is not None and args.shots.lower() in ("inf", "infinity"))
    if exact_mode:
        value = epsr.apply_rule(rule, sl, xbar)
        rows = [(0, value)]
    else:
        n_total = int(args.shots) if args.shots is not None else args.n_total
        ests = sampled_estimates(sl, rule, xbar, (args.scheme,), n_total,
                                 args.repetitions, [args.seed, 9, args.param], args.method)
        rows = list(enumerate(ests[args.scheme]))

    # stdout never carries the timestamp line
    plot = args.out and args.emit_gnuplot and not exact_mode
    _write_csv(args.out or sys.stdout, ["repetition", "estimate"], rows, args.reproducible or not args.out,
               [_kdensity(os.path.basename(args.out), ("estimates",))] if plot else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment

def _cmd_experiment(args) -> int:
    try:
        cfg = ExperimentConfig(
            experiment=args.id, q=args.q, p=args.p, delta=args.delta, seed=args.seed,
            n_total=args.n_total, repetitions=args.repetitions,
            params=tuple(args.params) if args.params else None,
            scheme=args.scheme, method=args.method, out_dir=args.out_dir,
            r_max=args.r_max, d_max=args.d_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run_experiment(cfg, reproducible=args.reproducible, emit_gnuplot=args.emit_gnuplot)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_circuit_flags(p: argparse.ArgumentParser):
    p.add_argument("--circuit", help="circuit family (xxz-hva)")
    p.add_argument("--q", type=int, default=5, help="qubit count")
    p.add_argument("--p", type=int, default=2, help="ansatz depth")
    p.add_argument("--delta", type=float, default=0.5, help="ZZ anisotropy")
    p.add_argument("--param", type=int, help="parameter index (0-based)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="shiftrules", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freq", help="frequency set of a spectrum or circuit parameter")
    p.add_argument("--eigs", help="comma-separated eigenvalues")
    _add_circuit_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dedup-tol", type=float, default=None,
                   help=f"gap deduplication tolerance of --eigs (default {DEFAULT_TOL:g})")
    p.add_argument("--no-prune", action="store_true",
                   help="report the superset {1..k} from the bound-gate count without amplitude pruning")
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("rule", help="build a shift rule")
    p.add_argument("--freqs", required=True, help="comma-separated frequencies")
    p.add_argument("--d", type=int, required=True, help="derivative order")
    p.add_argument("--equidistant", action="store_true")
    p.add_argument("--nodes", help="comma-separated shift nodes")
    p.add_argument("--optimize", help="optimize nodes for scheme: unif|wgt")
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_rule)

    p = sub.add_parser("estimate", help="derivative estimates of a circuit parameter")
    _add_circuit_flags(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--xbar", type=float, help="evaluation point (default: the seeded base value)")
    p.add_argument("--equidistant", action="store_true")
    p.add_argument("--nodes")
    p.add_argument("--rule-json", help="load the rule from a JSON file")
    p.add_argument("--scheme", default="weighted")
    p.add_argument("--n-total", type=int, default=1000)
    p.add_argument("--repetitions", type=int, default=500)
    p.add_argument("--shots", help="total shots; 'inf' for exact mode")
    p.add_argument("--exact", action="store_true", help="no sampling, exact value")
    p.add_argument("--method", default="multinomial", choices=("multinomial", "gaussian"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--reproducible", action="store_true")
    p.add_argument("--emit-gnuplot", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a canned reproduction experiment")
    p.add_argument("--id", help=f"one of {', '.join(EXPERIMENT_IDS)}")
    p.add_argument("--config", help="JSON config file (same keys as the flags)")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-total", type=int, default=1000)
    p.add_argument("--repetitions", type=int, default=500)
    p.add_argument("--params", type=int, nargs="*", help="parameter indices")
    p.add_argument("--scheme", default="weighted")
    p.add_argument("--method", default="multinomial", choices=("multinomial", "gaussian"))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--r-max", type=int, default=8)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--reproducible", action="store_true")
    p.add_argument("--emit-gnuplot", action="store_true")
    p.set_defaults(func=_cmd_experiment)
    return top


def _merge_config_argv(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the explicit ones.

    Config keys use the flag names (dashes or underscores); explicit
    command-line flags win because argparse keeps the last occurrence.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[i + 1]
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {
        "id", "experiment", "q", "p", "delta", "seed", "n-total", "repetitions",
        "params", "scheme", "method", "out-dir", "r-max", "d-max",
        "reproducible", "emit-gnuplot",
    }
    flags: list[str] = []
    for key, value in overrides.items():
        name = key.replace("_", "-")
        if name == "experiment":
            name = "id"
        if name not in known:
            raise ConfigError(f"unknown config key {key!r}")
        flag = f"--{name}"
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        elif isinstance(value, (list, tuple)):
            flags.append(flag)
            flags.extend(str(v) for v in value)
        else:
            flags.extend([flag, str(value)])
    rest = argv[:i] + argv[i + 2 :]
    return rest[:1] + flags + rest[1:]


def _glue_numeric_values(argv: list[str]) -> list[str]:
    """Join number-list values onto their flag so '--eigs -1,1' parses."""
    numeric_flags = {"--eigs", "--nodes", "--freqs", "--xbar", "--delta"}
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in numeric_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_numeric_values(_merge_config_argv(argv)))
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except epsr.SingularNodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
