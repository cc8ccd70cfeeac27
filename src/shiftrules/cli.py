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

``freq --circuit``, ``estimate`` and ``experiment`` read the
:class:`ExperimentConfig` field defaults, overlaid by the ``experiment
--config`` JSON object, overlaid by the flags given, and check the result
once, before anything is built.

Every command is deterministic given ``--seed``; CSV bodies are byte-stable
at a fixed BLAS thread count (seeded ``result2 --q 8`` output differs in
its last digits between 1 and 2 OpenBLAS threads, through the threaded
eigensolver).
CSV files carry a timestamped comment line unless ``--reproducible`` is set;
CSV printed to stdout never does.  Exit codes: 0 success, 2 validation
error, 3 numerical failure (singular nodes), 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import epsr, qsim, variance
from .experiments import (
    _EXPERIMENT_READS,
    EXPERIMENT_IDS,
    ConfigError,
    ExperimentConfig,
    _check_run_settings,
    _flag,
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

#: The only defaults of the run settings; an absent flag leaves its field here.
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse number list {text!r}") from exc


def _circuit_run(args):
    """Checked settings of ``freq --circuit`` or ``estimate``, and the cost slice they name."""
    s = argparse.Namespace(**{**_FIELD_DEFAULTS, **vars(args)})
    if s.circuit is None:
        raise ConfigError("--circuit is required; available: xxz-hva")
    if s.circuit != "xxz-hva":
        raise ConfigError(f"unknown circuit {s.circuit!r}; available: xxz-hva")
    if getattr(s, "param", None) is None:
        raise ValueError("--circuit needs --param")
    _check_run_settings(vars(s))
    return s, qsim.CostSlice(*xxz_hva_setup(s.q, s.p, s.delta), random_base_params(s.p, s.seed), s.param)


# ---------------------------------------------------------------------------
# freq

#: Per ``freq`` mode: the flags it rejects, the mode they belong to, and why.
_FREQ_MODES = {
    "eigs": (("no_prune", "param", "q", "p", "delta", "seed"), "--circuit",
             "--eigs reads the frequencies off the eigenvalue gaps"),
    "circuit": (("dedup_tol",), "--eigs", "--circuit reads the frequencies off the slice amplitudes"),
}


def _cmd_freq(args) -> int:
    given = vars(args)
    modes = [mode for mode in _FREQ_MODES if mode in given]
    if len(modes) != 1:
        raise ValueError("give exactly one of --eigs or --circuit")
    rejected, owner, why = _FREQ_MODES[modes[0]]
    bad = [_flag(name) for name in rejected if name in given]
    if bad:
        raise ConfigError(f"{', '.join(bad)} appl{'ies' if len(bad) == 1 else 'y'} to {owner} only; {why}")
    if modes[0] == "eigs":
        fs = positive_difference_frequencies(_floats(args.eigs), given.get("dedup_tol", DEFAULT_TOL))
    else:
        s, sl = _circuit_run(args)
        fs = qsim.slice_frequencies(sl.circuit, s.param) if given.get("no_prune") else sl.frequencies
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
    parity = epsr._order_parity(args.d)
    if args.equidistant:
        if not fs.is_consecutive_integers():
            raise ValueError("equidistant nodes require the integer frequencies 1..r")
        return epsr.equidistant_nodes(fs.r, parity)
    if args.nodes is not None:
        return epsr.ShiftNodes(parity, _floats(args.nodes))
    return None


def _rule_from_args(args, fs: FrequencySet):
    if args.d < 1:
        raise ValueError(f"--d must be at least 1, not {args.d}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, not {args.seed}")
    sources = [args.equidistant, args.nodes is not None, args.optimize is not None]
    if sum(sources) != 1:
        raise ValueError("give exactly one of --equidistant, --nodes or --optimize")
    for flag in ("generations", "seed"):
        if args.optimize is None and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to --optimize only; the other node sources run no search")
    extra = {}
    nodes = _nodes_from_flags(args, fs)
    if nodes is None:
        res = variance.optimize_shifts_global(
            fs, args.d, args.optimize, generations=args.generations, seed=args.seed or 0)
        nodes = res.nodes
        extra = {"objective": res.objective}
        if variance._norm_scheme(args.optimize) == "weighted":
            # weak duality: the objective lies at most ``gap`` (relative)
            # above the optimum
            bound = variance.weighted_lower_bound(fs, args.d)
            extra.update(dual_bound=bound, gap=(res.objective - bound) / bound)
        extra.update(generations=res.iterations, scheme=args.optimize, equidistant_error=res.equidistant_error,
                     stopped_at_cap=res.stopped_at_cap)
    return epsr.make_rule(nodes, fs, args.d), extra


def _rule_diagnostics(rule: epsr.PSRRule) -> dict:
    """The rule's conditioning, shift spacing, evaluation count and predicted variance per scheme.

    ``min_shift_gap`` is the smallest distance |phi_mu - phi_nu| between two
    expanded shifts; a tiny gap flags nodes that nearly coincide, which the
    rule pays for with extra evaluations and a large condition estimate.
    Variances are in units of sigma^2 / N_total (see
    :func:`variance.predicted_variance`) and are those of the splits that
    ``estimate`` draws.  ``uniform`` is the per-node split, r * ||b||^2 for
    odd orders and (r+1) * ||b||^2 for even ones.  Loading a rule document
    re-solves the rule, so this block is output only.
    """
    return {
        "condition_estimate": rule.diagnostics.condition_estimate,
        "determinant": rule.diagnostics.determinant,
        "min_shift_gap": float(np.min(np.diff(np.sort(rule.expanded_shifts)))),
        "evaluation_count": epsr.evaluation_count(rule),
        "predicted_variance": {
            s: variance.predicted_variance(rule.solve_coeffs, s) for s in ("uniform", "weighted")},
    }


def _cmd_rule(args) -> int:
    fs = FrequencySet(_floats(args.freqs))
    rule, extra = _rule_from_args(args, fs)
    doc = json.loads(epsr.rule_to_json(rule))
    doc["diagnostics"] = _rule_diagnostics(rule)
    doc.update(extra)
    # no inf or NaN token, which JSON lacks, can reach a rule document
    text = json.dumps(doc, indent=2, allow_nan=False)
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
    if args.emit_gnuplot and args.exact:
        raise ValueError("--emit-gnuplot plots sampled estimates; --exact writes one exact value")
    if args.emit_gnuplot and not args.out:
        raise ValueError("--emit-gnuplot writes its script beside the --out CSV; give --out")
    s, sl = _circuit_run(args)
    xbar = s.xbar if s.xbar is not None else sl.base_params[s.param]

    if s.rule_json:
        with open(s.rule_json) as fh:
            rule = epsr.rule_from_json(fh.read())
        if rule.order < 1:
            raise ValueError(f"the --rule-json rule has order {rule.order}; estimate needs a derivative, order >= 1")
        if s.d not in (None, rule.order):
            raise ValueError(f"--d {s.d} differs from the order {rule.order} of the --rule-json rule")
    else:
        s.d = 1 if s.d is None else s.d
        nodes = _nodes_from_flags(s, sl.frequencies) or valid_nodes_for(sl.frequencies, s.d, seed=s.seed)
        rule = epsr.make_rule(nodes, sl.frequencies, s.d)

    if s.exact:
        table = {"repetition": [0], "estimate": [epsr.apply_rule(rule, sl, xbar)]}
    else:
        ests = sampled_estimates(sl, rule, xbar, (s.scheme,), s.n_total, s.repetitions,
                                 [s.seed, 9, s.param], s.method)
        table = {"repetition": range(s.repetitions), "estimate": ests[s.scheme]}

    # stdout never carries the timestamp line
    _write_csv(s.out or sys.stdout, table, s.reproducible or not s.out,
               [_kdensity(os.path.basename(s.out), ("estimates",))] if s.emit_gnuplot else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment

class _ConfigFile(argparse.Action):
    """``--config FILE``: a JSON object whose keys set the flags not given.

    Keys are flag names, with dashes or underscores (``id`` or
    ``experiment`` for ``--id``), and each value must have its flag's JSON
    type.  The values are kept apart from the flags, as a dict of
    destinations, so a flag given before or after ``--config`` wins; of two
    files, the first one's keys win.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        actions = {a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", self.dest)}
        settings = {}
        for key, value in doc.items():
            action = actions.get("experiment" if key == "id" else key.replace("-", "_"))
            if action is None:
                raise ConfigError(f"unknown config key {key!r}")
            kind = bool if action.nargs == 0 else action.type or str
            values = value if action.nargs == "*" else [value]
            if not (isinstance(values, list)
                    and all(type(v) is kind or (kind is float and type(v) is int) for v in values)):
                what = ("a list of " if action.nargs == "*" else "") + kind.__name__
                raise ConfigError(f"config key {key!r} must be {what}, not {json.dumps(value)}")
            settings[action.dest] = [kind(v) for v in values] if action.nargs == "*" else kind(value)
        setattr(namespace, self.dest, {**settings, **getattr(namespace, self.dest, {})})


def _cmd_experiment(args) -> int:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    s = {**getattr(args, "config", {}), **given}
    flags = {k: s.pop(k) for k in ("reproducible", "emit_gnuplot") if k in s}
    cfg = ExperimentConfig(s.pop("experiment", None), **s)
    # one config file may serve several ids, so only the flags given are
    # held to the settings the id reads
    reads = ("out_dir", *_EXPERIMENT_READS[cfg.experiment])
    unread = [_flag(name) for name in given if name not in ("experiment", *flags, *reads)]
    if unread:
        raise ConfigError(f"--id {cfg.experiment} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(map(_flag, reads))}")
    run_experiment(cfg, **flags)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

_FIELD_HELP = {"q": "qubit count", "p": "ansatz depth", "delta": "ZZ anisotropy", "params": "parameter indices"}


def _add_field_flags(p: argparse.ArgumentParser, *names: str):
    """Flags of ExperimentConfig fields; an absent one stays out of the namespace."""
    for name in names:
        kind = {"type": int, "nargs": "*"} if name == "params" else {"type": type(_FIELD_DEFAULTS[name])}
        p.add_argument(_flag(name), default=argparse.SUPPRESS, help=_FIELD_HELP.get(name), **kind)


def _add_circuit_flags(p: argparse.ArgumentParser):
    p.add_argument("--circuit", help="circuit family (xxz-hva)")
    _add_field_flags(p, "q", "p", "delta", "seed")
    p.add_argument("--param", type=int, help="parameter index (0-based)")


def _add_freq(sub):
    # only the flags given reach the namespace: freq's modes reject by name
    p = sub.add_parser("freq", help="frequency set of a spectrum or circuit parameter",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--eigs", help="comma-separated eigenvalues")
    _add_circuit_flags(p)
    p.add_argument("--dedup-tol", type=float,
                   help=f"gap deduplication tolerance of --eigs (default {DEFAULT_TOL:g})")
    p.add_argument("--no-prune", action="store_true",
                   help="report the superset {1..k} from the bound-gate count without amplitude pruning")
    p.set_defaults(func=_cmd_freq)


def _add_rule(sub):
    p = sub.add_parser("rule", help="build a shift rule")
    p.add_argument("--freqs", required=True, help="comma-separated frequencies")
    p.add_argument("--d", type=int, required=True, help="derivative order")
    p.add_argument("--equidistant", action="store_true")
    p.add_argument("--nodes", help="comma-separated shift nodes")
    p.add_argument("--optimize", help="optimize nodes for scheme: unif|wgt")
    p.add_argument("--generations", type=int, help="DE generation cap of --optimize (default max(400, 300 r))")
    p.add_argument("--seed", type=int, help="DE seed of --optimize (default 0)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_rule)


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="derivative estimates of a circuit parameter")
    _add_circuit_flags(p)
    p.add_argument("--d", type=int, help="derivative order (default 1, or the --rule-json rule's order)")
    p.add_argument("--xbar", type=float, help="evaluation point (default: the seeded base value)")
    p.add_argument("--equidistant", action="store_true")
    p.add_argument("--nodes")
    p.add_argument("--rule-json", help="load the rule from a JSON file")
    _add_field_flags(p, "scheme", "n_total", "repetitions")
    p.add_argument("--exact", action="store_true", help="no sampling, exact value")
    _add_field_flags(p, "method")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--reproducible", action="store_true")
    p.add_argument("--emit-gnuplot", action="store_true")
    p.set_defaults(func=_cmd_estimate)


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a canned reproduction experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--id", dest="experiment", metavar="ID", help=f"one of {', '.join(EXPERIMENT_IDS)}")
    p.add_argument("--config", action=_ConfigFile, help="JSON config file (same keys as the flags)")
    _add_field_flags(p, *_FIELD_DEFAULTS)
    p.add_argument("--reproducible", action="store_true")
    p.add_argument("--emit-gnuplot", action="store_true")
    p.set_defaults(func=_cmd_experiment)


_SUBCOMMANDS = {"freq": _add_freq, "rule": _add_rule, "estimate": _add_estimate, "experiment": _add_experiment}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given the name of one, of that subcommand alone.

    A one-subcommand parser still names all four in its usage line, so the errors that argparse
    reports through the top parser read the same either way.
    """
    top = argparse.ArgumentParser(prog="shiftrules", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _SUBCOMMANDS[name](sub)
    return top


def _glue_numeric_values(argv: list[str]) -> list[str]:
    """Join number-list values onto their flag so '--eigs -1,1' parses."""
    numeric_flags = {"--eigs", "--nodes", "--freqs", "--xbar", "--delta"}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in numeric_flags and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_glue_numeric_values(argv))
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
