import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from shiftrules import cli, epsr, experiments, qsim, variance
from shiftrules.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from shiftrules.experiments import ExperimentConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- freq ------------------------------------------------------------------

def test_freq_from_eigenvalues(capsys):
    code, out, _ = run(capsys, "freq", "--eigs", "-1,1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"frequencies": [2.0], "r": 1, "equidistant_step": 2.0}


def test_freq_constant_spectrum_fails(capsys):
    code, _, err = run(capsys, "freq", "--eigs", "3,3,3")
    assert code == EXIT_VALIDATION
    assert "constant generator" in err


def test_freq_circuit_gamma2(capsys):
    code, out, _ = run(capsys, "freq", "--circuit", "xxz-hva", "--q", "5", "--p", "2", "--param", "7")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["frequencies"] == [1.0, 2.0, 4.0]
    assert doc["r"] == 3
    assert doc["equidistant_step"] is None


def test_freq_circuit_no_prune_superset(capsys):
    code, out, _ = run(capsys, "freq", "--circuit", "xxz-hva", "--q", "5", "--p", "2",
                       "--param", "7", "--no-prune")
    assert code == EXIT_OK
    assert json.loads(out)["frequencies"] == [1.0, 2.0, 3.0, 4.0]


def test_freq_dedup_tol_is_rejected_with_circuit(capsys):
    code, out, err = run(capsys, "freq", "--circuit", "xxz-hva", "--q", "5", "--p", "2",
                         "--param", "7", "--dedup-tol", "0.9")
    assert code == EXIT_CONFIG
    assert out == "" and "--dedup-tol" in err


@pytest.mark.parametrize("flags", [("--no-prune",), ("--param", "3"), ("--q", "5"), ("--p", "2"),
                                   ("--delta", "0.5"), ("--seed", "0")])
def test_freq_circuit_flags_are_rejected_with_eigs(capsys, flags):
    # the default values too: what counts is that the flag was given
    code, out, err = run(capsys, "freq", "--eigs", "-1,1", *flags)
    assert code == EXIT_CONFIG
    assert out == "" and f"{flags[0]} applies to --circuit only" in err


def test_freq_eigs_names_every_circuit_flag_given(capsys):
    code, out, err = run(capsys, "freq", "--eigs", "-1,1", "--no-prune", "--param", "3")
    assert code == EXIT_CONFIG
    assert out == "" and "--no-prune, --param apply to --circuit only" in err


def test_freq_dedup_tol_merges_eigenvalue_gaps(capsys):
    code, out, _ = run(capsys, "freq", "--eigs", "0,1,2.01")
    assert code == EXIT_OK
    assert json.loads(out)["frequencies"] == pytest.approx([1.0, 1.01, 2.01], abs=1e-12)
    code, out, _ = run(capsys, "freq", "--eigs", "0,1,2.01", "--dedup-tol", "0.01")
    assert code == EXIT_OK
    assert json.loads(out)["frequencies"] == pytest.approx([1.005, 2.01], abs=1e-12)


def test_freq_requires_one_source(capsys):
    code, _, err = run(capsys, "freq")
    assert code == EXIT_VALIDATION


def test_freq_unknown_circuit(capsys):
    code, _, err = run(capsys, "freq", "--circuit", "nope", "--param", "0")
    assert code == EXIT_CONFIG


# --- rule ------------------------------------------------------------------

def test_rule_equidistant_two_frequencies(capsys):
    code, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--equidistant")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert np.allclose(doc["nodes"], [math.pi / 4, 3 * math.pi / 4])
    assert np.allclose(doc["b"], [(1 + math.sqrt(2)) / math.sqrt(2), (1 - math.sqrt(2)) / math.sqrt(2)])
    assert len(doc["expanded"]["phi"]) == 4


def test_rule_singular_nodes_exit_code(capsys):
    code, _, err = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--nodes", "0,1")
    assert code == EXIT_NUMERICAL
    assert "singular" in err


def test_rule_optimized(capsys):
    code, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--optimize", "wgt", "--seed", "7")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["objective"] == pytest.approx(2.0, abs=1e-4)
    assert doc["equidistant_error"] <= 1e-3
    # weak duality: objective >= dual_bound = Omega_max^d, gap relative
    keys = list(doc)
    assert keys[keys.index("objective"):][:3] == ["objective", "dual_bound", "gap"]
    assert doc["dual_bound"] == 2.0
    assert doc["gap"] == (doc["objective"] - 2.0) / 2.0 and 0 <= doc["gap"] <= 1e-12


@pytest.mark.parametrize("scheme,freqs,d", [("wgt", "7,9,11", 1), ("unif", "1,2,3", 2)])
def test_rule_optimized_writes_its_generation_count(capsys, monkeypatch, scheme, freqs, d):
    runs = []
    real = cli.variance.optimize_shifts_global

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli.variance, "optimize_shifts_global", recording)
    code, out, _ = run(capsys, "rule", "--freqs", freqs, "--d", str(d), "--optimize", scheme, "--seed", "7")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["generations"] == runs[0].iterations >= 1
    keys = list(doc)
    assert keys.index("generations") == keys.index("scheme") - 1


@pytest.mark.parametrize("argv,message", [
    (("--d", "1", "--optimize", "wgt", "--seed", "-1"), "--seed must be non-negative, not -1"),
    (("--d", "1", "--equidistant", "--seed", "-3"), "--seed must be non-negative, not -3"),
    (("--d", "0", "--equidistant"), "--d must be at least 1, not 0"),
    (("--d", "-2", "--nodes", "0.5,1"), "--d must be at least 1, not -2"),
    (("--d", "0", "--optimize", "wgt"), "--d must be at least 1, not 0"),
])
def test_rule_rejects_a_bad_order_or_seed_before_any_solve(tmp_path, capsys, monkeypatch, argv, message):
    def solved(*args, **kwargs):
        pytest.fail("a rule was solved before the flags were checked")

    monkeypatch.setattr(cli.epsr, "make_rule", solved)
    monkeypatch.setattr(cli.variance, "optimize_shifts_global", solved)
    code, out, err = run(capsys, "rule", "--freqs", "1,2", *argv, "--out", str(tmp_path / "rule.json"))
    assert code == EXIT_VALIDATION
    assert out == "" and message in err
    assert list(tmp_path.iterdir()) == []


def test_rule_optimized_uniform_has_no_dual_bound(capsys):
    code, out, _ = run(capsys, "rule", "--freqs", "1,2,3", "--d", "2", "--optimize", "unif")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "dual_bound" not in doc and "gap" not in doc
    # the last node lands on pi, where +-pi merge into one evaluation
    assert doc["nodes"][-1] == math.pi
    assert doc["diagnostics"]["evaluation_count"] == 6


@pytest.mark.parametrize("flags,message", [
    (("--generations", "0"), "generations must be at least 1, not 0"),
    (("--generations", "-5"), "generations must be at least 1, not -5"),
])
def test_rule_optimize_rejects_a_too_small_search(capsys, flags, message):
    code, out, err = run(capsys, "rule", "--freqs", "1,2,3", "--d", "1", "--optimize", "wgt", *flags)
    assert code == EXIT_VALIDATION
    assert out == "" and message in err


_TOP_USAGE = "usage: shiftrules [-h] {freq,rule,estimate,experiment} ...\n"


def test_rule_has_no_population_flag(capsys):
    # the search population is 15 r members, not a setting
    with pytest.raises(SystemExit) as exc:
        main(["rule", "--freqs", "1,2,3", "--d", "1", "--optimize", "wgt", "--population", "45"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --population" in captured.err
    # main builds the rule parser alone, but its usage line still names every command
    assert captured.err.startswith(_TOP_USAGE)


def test_rule_document_carries_diagnostics_and_round_trips(tmp_path, capsys):
    from shiftrules import epsr, variance
    from shiftrules.spectra import integer_frequencies

    code, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "2", "--equidistant")
    assert code == EXIT_OK
    doc = json.loads(out)
    rule = epsr.make_rule(epsr.equidistant_nodes(2, "even"), integer_frequencies(2), 2)
    diag = doc["diagnostics"]
    assert diag["condition_estimate"] == rule.diagnostics.condition_estimate
    assert diag["determinant"] == rule.diagnostics.determinant
    assert diag["evaluation_count"] == epsr.evaluation_count(rule) == 4
    for scheme in ("uniform", "weighted"):
        want = variance.predicted_variance(rule.solve_coeffs, scheme)
        assert diag["predicted_variance"][scheme] == want
    # the block is output only: with it, without it or with a stale copy, a
    # loaded rule is the re-solved one
    bare = {k: v for k, v in doc.items() if k != "diagnostics"}
    stale = {**doc, "diagnostics": {**diag, "condition_estimate": 1e300}}
    estimates = []
    for variant in (doc, bare, stale):
        back = epsr.rule_from_json(json.dumps(variant))
        assert back.solve_coeffs == rule.solve_coeffs and back.diagnostics == rule.diagnostics
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(variant))
        code, est, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0",
                           "--rule-json", str(path), "--exact")
        assert code == EXIT_OK
        estimates.append(est)
    assert estimates[0].splitlines()[0] == "repetition,estimate"
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]


def test_rule_diagnostics_carry_the_smallest_shift_gap(capsys):
    code, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--equidistant")
    assert code == EXIT_OK
    assert json.loads(out)["diagnostics"]["min_shift_gap"] == pytest.approx(math.pi / 2, rel=1e-12)
    # this uniform search lands on two nodes 1.2e-7 apart, condition 2.7e7
    code, out, _ = run(capsys, "rule", "--freqs", "0.945,2.728", "--d", "1", "--optimize", "unif",
                       "--seed", "730")
    assert code == EXIT_OK
    doc = json.loads(out)
    gap = doc["diagnostics"]["min_shift_gap"]
    assert gap == float(np.min(np.diff(np.sort(doc["expanded"]["phi"])))) < 1e-6
    assert doc["diagnostics"]["condition_estimate"] > 1e7
    assert doc["stopped_at_cap"] is False


def test_rule_optimize_reports_a_stop_at_the_generation_cap(capsys):
    code, out, _ = run(capsys, "rule", "--freqs", "0.945,2.728", "--d", "1", "--optimize", "unif",
                       "--generations", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["generations"] == 3 and doc["stopped_at_cap"] is True
    assert list(doc)[-1] == "stopped_at_cap"


def test_rule_requires_exactly_one_node_source(capsys):
    code, _, err = run(capsys, "rule", "--freqs", "1,2", "--d", "1")
    assert code == EXIT_VALIDATION
    code, _, err = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--equidistant", "--nodes", "1,2")
    assert code == EXIT_VALIDATION


def test_rule_equidistant_needs_integer_frequencies(capsys):
    code, _, err = run(capsys, "rule", "--freqs", "1,2,4", "--d", "1", "--equidistant")
    assert code == EXIT_VALIDATION


def test_rule_file_output(tmp_path, capsys):
    out_file = tmp_path / "rule.json"
    code, _, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "2", "--equidistant", "--out", str(out_file))
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["order"] == 2 and doc["parity"] == "even"


@pytest.mark.parametrize("flags", [
    ("--freqs", "1e200", "--d", "3", "--nodes", "1e-200"),
    ("--freqs", "1e150,2e150", "--d", "3", "--optimize", "unif", "--generations", "3"),
    ("--freqs", "1e200,2e200", "--d", "2", "--optimize", "wgt"),
], ids=["nodes", "unif", "wgt"])
def test_rule_whose_top_power_overflows_exits_2_and_writes_nothing(tmp_path, capsys, flags):
    # Omega_max^d beyond the double range wrote -Infinity and NaN, which JSON
    # lacks, or crashed with an OverflowError
    out_file = tmp_path / "rule.json"
    code, out, err = run(capsys, "rule", *flags, "--out", str(out_file))
    assert code == EXIT_VALIDATION and out == ""
    assert f"order d = {flags[3]} overflows: Omega_max^d with Omega_max = {float(flags[1].split(',')[-1])!r}" in err
    assert not out_file.exists()


def test_rule_whose_variance_overflows_names_it_and_writes_nothing(tmp_path, capsys):
    # b = 1.19e200 is finite, but m ||b||^2 is not
    out_file = tmp_path / "rule.json"
    code, out, err = run(capsys, "rule", "--freqs", "1e200", "--d", "1", "--nodes", "1e-200", "--out", str(out_file))
    assert code == EXIT_VALIDATION and out == ""
    assert "uniform predicted variance m ||b||_2^2 overflows the double range" in err
    assert not out_file.exists()


@pytest.mark.parametrize("source", [("--equidistant",), ("--nodes", "0.5,1.5")], ids=["equidistant", "nodes"])
@pytest.mark.parametrize("flags,message", [
    (("--generations", "5"), "--generations applies to --optimize only"),
    (("--seed", "0"), "--seed applies to --optimize only"),
])
def test_rule_refuses_search_flags_without_optimize(tmp_path, capsys, monkeypatch, source, flags, message):
    monkeypatch.setattr(cli.epsr, "make_rule", lambda *args: pytest.fail("a rule was solved"))
    out_file = tmp_path / "rule.json"
    code, out, err = run(capsys, "rule", "--freqs", "1,2", "--d", "1", *source, *flags, "--out", str(out_file))
    assert code == EXIT_VALIDATION and out == ""
    assert message in err
    assert not out_file.exists()


# --- estimate -----------------------------------------------------------------

def test_estimate_exact_matches_reference(capsys):
    code, out, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--q", "5", "--p", "2",
                       "--param", "0", "--d", "1", "--exact")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "repetition,estimate"
    value = float(lines[1].split(",")[1])

    from shiftrules.experiments import random_base_params, xxz_hva_setup
    from shiftrules.qsim import CostSlice
    from oracles import central_difference

    circuit, obs = xxz_hva_setup(5, 2, 0.5)
    theta = random_base_params(2, 0)
    sl = CostSlice(circuit, obs, theta, 0)
    ref = central_difference(sl, theta[0], 1, 1e-2)
    assert value == pytest.approx(ref, abs=1e-9)


def test_estimate_equidistant_needs_integer_frequencies(capsys):
    # parameter 7 has slice frequencies {1, 2, 4}
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "7", "--equidistant",
                         "--exact")
    assert code == EXIT_VALIDATION
    assert out == "" and "equidistant nodes require the integer frequencies 1..r" in err


@pytest.mark.parametrize("flags", [("--equidistant", "--nodes", "0.5,1.5"),
                                   ("--equidistant", "--rule-json", "rule.json"),
                                   ("--nodes", "0.5,1.5", "--rule-json", "rule.json")])
def test_estimate_takes_at_most_one_node_source(capsys, flags):
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", "--exact", *flags)
    assert code == EXIT_VALIDATION
    assert out == "" and "at most one of --equidistant, --nodes or --rule-json" in err


@pytest.mark.parametrize("mode", [("--exact",), ("--repetitions", "5")])
@pytest.mark.parametrize("flags,message", [
    (("--scheme", "bogus"), "--scheme: unknown scheme 'bogus'"),
    (("--scheme", "custom"), "--scheme: unknown scheme 'custom'; choose uniform or weighted"),
    (("--repetitions", "0"), "--repetitions must be positive"),
    (("--n-total", "0"), "--n-total must be positive"),
])
def test_estimate_rejects_bad_sampling_flags(capsys, mode, flags, message):
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", *mode, *flags)
    assert code == EXIT_CONFIG
    assert out == "" and message in err


@pytest.mark.parametrize("mode", [("--exact",), ("--repetitions", "5")])
@pytest.mark.parametrize("flags,message", [
    (("--xbar", "nan"), "--xbar must be finite, not nan"),
    (("--xbar", "inf"), "--xbar must be finite, not inf"),
    (("--delta", "nan"), "--delta must be finite, not nan"),
    (("--delta", "-inf"), "--delta must be finite, not -inf"),
])
def test_estimate_rejects_non_finite_flags(capsys, mode, flags, message):
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", *mode, *flags)
    assert code == EXIT_CONFIG
    assert out == "" and message in err


def test_estimate_has_no_shots_flag(capsys):
    # --n-total N and --exact are the one spelling of a shot budget and of exact mode
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--circuit", "xxz-hva", "--param", "0", "--shots", "inf"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --shots" in captured.err


@pytest.mark.parametrize("scheme", ["uniform", "weighted"])
def test_a_shot_total_below_the_active_shifts_exits_2_and_writes_no_csv(tmp_path, capsys, scheme):
    # parameter 1's rule has 8 shifts with nonzero coefficients; 7 shots
    # would leave some of them without a shot
    message = "n_total 7 is below the 8 shifts with a nonzero coefficient"
    est = tmp_path / "est.csv"
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "1", "--n-total", "7",
                         "--scheme", scheme, "--out", str(est))
    assert code == EXIT_VALIDATION and out == "" and message in err
    assert not est.exists()
    for exp in ("result2", "result3"):
        out_dir = tmp_path / exp
        code, out, err = run(capsys, "experiment", "--id", exp, "--params", "0", "1", "--n-total", "7",
                             "--repetitions", "5", "--out-dir", str(out_dir))
        assert code == EXIT_VALIDATION and out == "" and message in err
        assert list(out_dir.glob("*.csv")) == []
    code, out, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "1", "--n-total", "8",
                       "--scheme", scheme, "--repetitions", "5")
    assert code == EXIT_OK and len(out.splitlines()) == 6


@pytest.mark.parametrize("xbar", ["1e15", "1e17"])
@pytest.mark.parametrize("mode", [("--exact",), ("--repetitions", "5")], ids=["exact", "sampled"])
def test_estimate_refuses_an_xbar_that_rounds_the_shifts_away(tmp_path, capsys, xbar, mode):
    # at 1e15 (unit in the last place 0.125) the exact estimate read 2.600
    # against the slice's derivative 2.746; at 1e17 every point rounds to
    # xbar and it read 0
    est = tmp_path / "est.csv"
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "1", "--xbar", xbar, *mode,
                         "--out", str(est))
    assert code == EXIT_VALIDATION and out == ""
    assert f"xbar = {float(xbar)!r} rounds the rule's shifts away" in err
    assert not est.exists()


@pytest.mark.parametrize("flags,message", [
    (("--exact", "--out", "e.csv"), "--emit-gnuplot plots sampled estimates; --exact writes one exact value"),
    (("--repetitions", "5"), "--emit-gnuplot writes its script beside the --out CSV; give --out"),
])
def test_estimate_rejects_gnuplot_without_a_sampled_csv(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", *flags, "--emit-gnuplot")
    assert code == EXIT_VALIDATION
    assert out == "" and message in err
    assert list(tmp_path.iterdir()) == []


def test_estimate_gnuplot_script_beside_csv(tmp_path, capsys):
    code, _, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", "--repetitions", "5",
                     "--out", str(tmp_path / "e.csv"), "--emit-gnuplot")
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "e.gp"]
    assert "'e.csv'" in (tmp_path / "e.gp").read_text()


def test_estimate_sampled_csv(tmp_path, capsys):
    out_file = tmp_path / "est.csv"
    code, _, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0",
                     "--scheme", "weighted", "--repetitions", "50", "--seed", "3",
                     "--out", str(out_file), "--reproducible")
    assert code == EXIT_OK
    body = out_file.read_text()
    lines = body.strip().splitlines()
    assert lines[0] == "repetition,estimate"
    assert len(lines) == 51
    # byte-identical rerun
    code, _, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0",
                     "--scheme", "weighted", "--repetitions", "50", "--seed", "3",
                     "--out", str(out_file), "--reproducible")
    assert out_file.read_text() == body


def test_estimate_stdout_equals_reproducible_file(tmp_path, capsys):
    out_file = tmp_path / "est.csv"
    args = ("estimate", "--circuit", "xxz-hva", "--param", "0", "--repetitions", "20", "--seed", "3")
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    code, _, _ = run(capsys, *args, "--out", str(out_file), "--reproducible")
    assert code == EXIT_OK
    assert out == out_file.read_text()
    # stdout never carries the timestamp line, with or without --reproducible
    assert not out.startswith("#")


def test_estimate_variance_ratio(tmp_path, capsys):
    outs = {}
    for scheme in ("uniform", "weighted"):
        f = tmp_path / f"{scheme}.csv"
        code, _, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0",
                         "--scheme", scheme, "--repetitions", "400", "--n-total", "1000",
                         "--seed", "11", "--out", str(f), "--reproducible")
        assert code == EXIT_OK
        outs[scheme] = np.genfromtxt(f, delimiter=",", names=True)["estimate"]
    ratio = np.var(outs["uniform"], ddof=1) / np.var(outs["weighted"], ddof=1)
    assert ratio == pytest.approx(1.5, abs=0.5)


def test_estimate_uniform_even_order_has_the_predicted_variance(tmp_path, capsys):
    # the per-node uniform split that estimate draws at d = 2, where the
    # nodes 0 and pi are one shift each, has variance
    # sum_mu gamma_mu^2 Var_mu / n_mu.  (n - 1) s^2 / sigma^2 is chi-square
    # with n - 1 degrees of freedom; the bounds are its Wilson-Hilferty
    # quantiles at z = -5 and 5 (about 3e-7 per tail).  At 10,000 draws they
    # are 0.93 and 1.07 times sigma^2.  The ratio reads 0.99 here, and 1.15
    # against the prediction of an equal split per shift, which they reject
    from shiftrules import epsr, qsim, variance

    reps, n_total, seed = 10_000, 1000, 4
    f = tmp_path / "est.csv"
    code, _, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", "--d", "2",
                     "--scheme", "uniform", "--repetitions", str(reps), "--n-total", str(n_total),
                     "--seed", str(seed), "--out", str(f), "--reproducible")
    assert code == EXIT_OK
    draws = np.genfromtxt(f, delimiter=",", names=True)["estimate"]

    circuit, obs = experiments.xxz_hva_setup(5, 2, 0.5)  # estimate's default q, p and delta
    theta = experiments.random_base_params(2, seed)
    sl = qsim.CostSlice(circuit, obs, theta, 0)
    fs = sl.frequencies
    rule = epsr.make_rule(experiments.valid_nodes_for(fs, 2, seed=seed), fs, 2)
    gamma, shifts = np.asarray(rule.expanded_coeffs), np.asarray(rule.expanded_shifts)
    assert {0.0, math.pi} <= set(shifts.tolist())
    n = variance.integer_shot_counts(variance.allocate("uniform", gamma, n_total, shifts))
    active = gamma != 0
    predicted = float(np.sum(gamma[active] ** 2 * sl.one_shot_variance(theta[0] + shifts[active]) / n[active]))

    k = reps - 1
    lo, hi = (k * (1 - 2 / (9 * k) + z * math.sqrt(2 / (9 * k))) ** 3 for z in (-5, 5))
    assert lo <= k * np.var(draws, ddof=1) / predicted <= hi


# --- experiment ------------------------------------------------------------------

def test_experiment_unknown_id(tmp_path, capsys):
    code, _, err = run(capsys, "experiment", "--id", "bogus", "--out-dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "unknown experiment" in err


def test_experiment_unknown_scheme_is_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "experiment", "--id", "landscape", "--scheme", "bogus",
                       "--out-dir", str(out_dir))
    assert code == EXIT_CONFIG
    assert "unknown scheme 'bogus'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("param", ["99", "8", "-1"])
def test_experiment_param_out_of_range_is_config_error(tmp_path, capsys, param):
    out_dir = tmp_path / "o"
    code, _, err = run(capsys, "experiment", "--id", "result2", "--params", param,
                       "--out-dir", str(out_dir))
    assert code == EXIT_CONFIG
    assert f"params [{param}] out of range" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags,message", [
    (("--q", "2"), "q must be in 3..12, not 2"),
    (("--q", "13"), "q must be in 3..12, not 13"),
    (("--delta", "nan"), "delta must be finite, not nan"),
])
def test_experiment_bad_circuit_is_config_error(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "o"
    code, _, err = run(capsys, "experiment", "--id", "result1", *flags, "--out-dir", str(out_dir))
    assert code == EXIT_CONFIG
    assert message in err
    assert not out_dir.exists()


def test_experiment_config_file(tmp_path, capsys):
    cfg = {"id": "landscape", "out_dir": str(tmp_path), "reproducible": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "experiment", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert (tmp_path / "landscape_d1.csv").exists()
    assert (tmp_path / "landscape_d6.csv").exists()
    body = (tmp_path / "landscape_d1.csv").read_text()
    assert body.splitlines()[0] == "x1,x2,F"


def test_experiment_config_flag_override(tmp_path, capsys):
    # config sets result2 but the explicit flag wins
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"id": "result2", "repetitions": 10}))
    code, _, _ = run(capsys, "experiment", "--config", str(cfg_path), "--id", "landscape",
                     "--out-dir", str(tmp_path), "--reproducible")
    assert code == EXIT_OK
    assert (tmp_path / "landscape_d1.csv").exists()
    assert not (tmp_path / "result2_theta1.csv").exists()


def test_experiment_bad_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"id": "landscape", "bogus_key": 1}))
    code, _, err = run(capsys, "experiment", "--config", str(cfg_path))
    assert code == EXIT_CONFIG


def test_experiment_result2_deterministic_and_gnuplot(tmp_path, capsys):
    args = ("experiment", "--id", "result2", "--out-dir", str(tmp_path),
            "--repetitions", "40", "--seed", "5", "--reproducible", "--emit-gnuplot")
    code, _, _ = run(capsys, *args)
    assert code == EXIT_OK
    first = (tmp_path / "result2_theta1.csv").read_text()
    assert (tmp_path / "result2_theta1.gp").exists()
    cfg_echo = json.loads((tmp_path / "result2_config.json").read_text())
    assert len(cfg_echo["base_params"]) == 8
    code, _, _ = run(capsys, *args)
    assert (tmp_path / "result2_theta1.csv").read_text() == first


@pytest.mark.parametrize("exp_id", ["result2", "landscape"])
def test_gnuplot_script_beside_csv_when_out_dir_name_has_csv(tmp_path, capsys, exp_id):
    out_dir = tmp_path / "runs.csv"
    flags = ("--repetitions", "10", "--params", "0") if exp_id == "result2" else ()
    code, _, err = run(capsys, "experiment", "--id", exp_id, "--out-dir", str(out_dir), *flags,
                       "--emit-gnuplot")
    assert code == EXIT_OK, err
    csvs = sorted(out_dir.glob("*.csv"))
    assert csvs
    for csv in csvs:
        gp = csv.with_suffix(".gp")
        assert gp.read_text().startswith("set datafile separator ','\n")
        assert f"'{csv.name}'" in gp.read_text()
    assert not (tmp_path / "runs.gp").exists()


def test_seventeen_digit_serialization(capsys):
    _, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--equidistant")
    doc = json.loads(out)
    # full double precision round-trip of the solved coefficients
    from shiftrules.epsr import equidistant_nodes, make_rule
    from shiftrules.spectra import integer_frequencies

    rule = make_rule(equidistant_nodes(2, "odd"), integer_frequencies(2), 1)
    assert doc["b"] == list(rule.solve_coeffs)
    assert doc["expanded"]["gamma"] == list(rule.expanded_coeffs)


def _tampered_rule_exit_code(tmp_path, capsys, tamper):
    _, out, _ = run(capsys, "rule", "--freqs", "1,2", "--d", "1", "--equidistant")
    doc = json.loads(out)
    tamper(doc)
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0",
                       "--rule-json", str(path), "--repetitions", "5")
    return code, err


def test_estimate_accepts_untampered_rule_json(tmp_path, capsys):
    code, _ = _tampered_rule_exit_code(tmp_path, capsys, lambda doc: None)
    assert code == EXIT_OK


def test_estimate_rejects_tampered_gamma(tmp_path, capsys):
    def tamper(doc):
        doc["expanded"]["gamma"][0] = 123.0

    code, err = _tampered_rule_exit_code(tmp_path, capsys, tamper)
    assert code == EXIT_VALIDATION
    assert "'gamma'" in err


def test_estimate_rejects_rule_with_wrong_order(tmp_path, capsys):
    def tamper(doc):
        doc["order"] = 3

    code, err = _tampered_rule_exit_code(tmp_path, capsys, tamper)
    assert code == EXIT_VALIDATION
    assert "'b'" in err


@pytest.mark.parametrize("key,tamper", [
    ("order", lambda doc: doc.update(order=1.7)),
    ("order", lambda doc: doc.update(order="1")),
    ("order", lambda doc: doc.update(order=True)),
    # the node's own value as text, which float() would have read back
    ("nodes", lambda doc: doc["nodes"].__setitem__(1, str(doc["nodes"][1]))),
], ids=["order-float", "order-string", "order-bool", "nodes-string-entry"])
def test_estimate_rejects_a_rule_key_of_the_wrong_json_type(tmp_path, capsys, key, tamper):
    code, err = _tampered_rule_exit_code(tmp_path, capsys, tamper)
    assert code == EXIT_VALIDATION
    assert f"rule document key {key!r}" in err


def test_estimate_takes_the_order_of_a_rule_json_and_refuses_another_d(tmp_path, capsys):
    path = tmp_path / "rule.json"
    code, _, _ = run(capsys, "rule", "--freqs", "1,2,3,4", "--d", "1", "--equidistant", "--out", str(path))
    assert code == EXIT_OK
    flags = ("estimate", "--circuit", "xxz-hva", "--param", "1", "--rule-json", str(path), "--exact")
    code, out, err = run(capsys, *flags, "--d", "2")
    assert code == EXIT_VALIDATION and out == ""
    assert "--d 2" in err and "order 1" in err
    code, absent, _ = run(capsys, *flags)
    assert code == EXIT_OK
    assert run(capsys, *flags, "--d", "1")[1] == absent


def test_estimate_refuses_a_rule_json_of_order_0(tmp_path, capsys):
    # a zeroth-order rule reconstructs the slice's value, which estimate
    # used to write as the "estimate", while --d 0 exits 4
    from shiftrules import epsr
    from shiftrules.spectra import FrequencySet

    path = tmp_path / "rule.json"
    path.write_text(epsr.rule_to_json(epsr.make_rule(epsr.equidistant_nodes(4, "even"), FrequencySet((1, 2, 3, 4)), 0)))
    code, out, err = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "1", "--rule-json", str(path),
                         "--exact")
    assert code == EXIT_VALIDATION and out == ""
    assert "order 0" in err


def _rule_then_exact_estimate(tmp_path, capsys, freqs, param):
    path = tmp_path / "rule.json"
    code, _, _ = run(capsys, "rule", "--freqs", freqs, "--d", "1", "--equidistant", "--out", str(path))
    assert code == EXIT_OK
    return run(capsys, "estimate", "--circuit", "xxz-hva", "--param", str(param),
               "--rule-json", str(path), "--exact")


def test_estimate_rejects_rule_missing_slice_frequencies(tmp_path, capsys):
    # parameter 1 has slice frequencies {1,2,3,4}; a rule solved for {1} alone
    # would silently return a wrong derivative
    code, out, err = _rule_then_exact_estimate(tmp_path, capsys, "1", 1)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "(1.0,)" in err and "(1.0, 2.0, 3.0, 4.0)" in err


def test_estimate_rule_covering_slice_frequencies_is_exact(tmp_path, capsys):
    code, out, _ = _rule_then_exact_estimate(tmp_path, capsys, "1,2,3,4", 1)
    assert code == EXIT_OK
    _, want, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "1", "--exact")
    got_value = float(out.splitlines()[1].split(",")[1])
    want_value = float(want.splitlines()[1].split(",")[1])
    assert got_value == pytest.approx(want_value, abs=1e-10)


# --- one checked run configuration ----------------------------------------------

_RUNS = {
    "freq": ("freq", "--circuit", "xxz-hva", "--param", "0"),
    "estimate --exact": ("estimate", "--circuit", "xxz-hva", "--param", "0", "--exact",
                         "--out", "{tmp}/est.csv"),
    "estimate": ("estimate", "--circuit", "xxz-hva", "--param", "0", "--repetitions", "5",
                 "--out", "{tmp}/est.csv"),
    "experiment": ("experiment", "--id", "result2", "--repetitions", "5", "--out-dir", "{tmp}/o"),
}
_CIRCUIT_RUNS = ("freq", "estimate --exact", "estimate", "experiment")
_SHOT_RUNS = ("estimate --exact", "estimate", "experiment")

#: Every validated run flag: bad values, and the runs that take the flag.
_BAD_VALUES = [
    ("--q", (["2"], ["13"]), _CIRCUIT_RUNS),
    ("--p", (["0"],), _CIRCUIT_RUNS),
    ("--delta", (["nan"], ["-inf"]), _CIRCUIT_RUNS),
    ("--seed", (["-1"],), _CIRCUIT_RUNS),
    ("--param", (["99"], ["8"], ["-1"]), ("freq", "estimate --exact", "estimate")),
    ("--params", (["99"], ["0", "-1"], [], ["1", "1"]), ("experiment",)),
    ("--xbar", (["nan"], ["inf"]), ("estimate --exact", "estimate")),
    ("--scheme", (["bogus"], ["custom"]), _SHOT_RUNS),
    ("--method", (["bogus"],), _SHOT_RUNS),
    ("--n-total", (["0"],), _SHOT_RUNS),
    ("--repetitions", (["0"], ["-3"]), _SHOT_RUNS),
    ("--r-max", (["0"],), ("experiment",)),
    ("--d-max", (["0"],), ("experiment",)),
    ("--d", (["0"], ["-1"]), ("estimate --exact", "estimate")),
    ("--id", (["bogus"],), ("experiment",)),
]

#: A valid value of every flag a freq mode rejects.
_FREQ_FLAG_VALUES = {"no_prune": [], "param": ["3"], "q": ["5"], "p": ["2"], "delta": ["0.5"],
                     "seed": ["0"], "dedup_tol": ["0.1"]}


def _validation_cases():
    for flag, bad, runs in _BAD_VALUES:
        for name in runs:
            for values in bad:
                yield pytest.param((*_RUNS[name], flag, *values), flag, id=f"{name} {flag} {' '.join(values)}")
    bases = {"eigs": ("freq", "--eigs", "-1,1"), "circuit": _RUNS["freq"]}
    for mode, (rejected, _, _) in cli._FREQ_MODES.items():
        for name in rejected:
            flag = cli._flag(name)
            yield pytest.param((*bases[mode], flag, *_FREQ_FLAG_VALUES[name]), flag, id=f"freq --{mode} {flag}")


def test_the_validation_table_covers_every_check():
    tested = {flag for flag, _, _ in _BAD_VALUES}
    assert {cli._flag(name) for name in experiments._NUMERIC_CHECKS} <= tested
    assert {"--scheme", "--method", "--param", "--params", "--id"} <= tested
    assert set(_FREQ_FLAG_VALUES) == {name for rejected, _, _ in cli._FREQ_MODES.values() for name in rejected}


@pytest.mark.parametrize("argv,flag", _validation_cases())
def test_a_bad_run_flag_exits_4_naming_it_before_anything_is_built(tmp_path, capsys, monkeypatch, argv, flag):
    def built(*args, **kwargs):
        pytest.fail("a circuit or an experiment was built before the flags were checked")

    monkeypatch.setattr(cli, "xxz_hva_setup", built)
    monkeypatch.setattr(cli, "run_experiment", built)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_CONFIG, err
    assert flag in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_experiment_with_a_bad_seed_creates_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "experiment", "--id", "result1", "--seed", "-1", "--out-dir", str(out_dir))
    assert code == EXIT_CONFIG and out == ""
    assert "--seed must be non-negative, not -1" in err
    assert not out_dir.exists()


_FIELD_VALUES = {"experiment": "result1", "q": 6, "p": 3, "delta": 0.25, "seed": 4, "n_total": 200,
                 "repetitions": 7, "params": [1, 2], "scheme": "unif", "method": "gaussian",
                 "out_dir": "elsewhere", "r_max": 3, "d_max": 2}


def test_every_experiment_config_field_is_a_flag_and_a_config_key(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, **kwargs: runs.append((cfg, kwargs)))
    assert set(_FIELD_VALUES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg_path = tmp_path / "cfg.json"

    def experiment(*argv, doc=None):
        if doc is not None:
            cfg_path.write_text(json.dumps(doc))
            argv = ("--config", str(cfg_path), *argv)
        code, _, err = run(capsys, "experiment", *argv)
        assert code == EXIT_OK, err
        return runs.pop()

    # neither flag nor key: the dataclass defaults, and run_experiment's own
    assert experiment("--id", "landscape") == (ExperimentConfig("landscape"), {})
    for name, value in _FIELD_VALUES.items():
        # the flag goes to an id that reads it; a config key need not
        exp_id = next((e for e, reads in experiments._EXPERIMENT_READS.items() if name in reads), "landscape")
        values = value if isinstance(value, list) else [value]
        assert experiment("--id", exp_id, cli._flag(name), *map(str, values)) == (
            ExperimentConfig(**{"experiment": exp_id, name: value}), {})
        want = (ExperimentConfig(**{"experiment": "landscape", name: value}), {})
        keys = {name, name.replace("_", "-")} | ({"id"} if name == "experiment" else set())
        for key in keys:
            doc = {key: value} if name == "experiment" else {"id": "landscape", key: value}
            assert experiment(doc=doc) == want
    for name in ("reproducible", "emit_gnuplot"):
        want = (ExperimentConfig("landscape"), {name: True})
        assert experiment("--id", "landscape", cli._flag(name)) == want
        assert experiment(doc={"id": "landscape", name.replace("_", "-"): True}) == want
        assert experiment(doc={"id": "landscape", name: True}) == want
    # a flag given before --config wins too
    assert experiment("--repetitions", "9", doc={"id": "result2", "repetitions": 3}) == (
        ExperimentConfig("result2", repetitions=9), {})


def _unread_flags():
    settings = [name for name in _FIELD_VALUES if name not in ("experiment", "out_dir")]
    for exp_id, reads in experiments._EXPERIMENT_READS.items():
        for name in settings:
            if name not in reads:
                yield pytest.param(exp_id, name, id=f"{exp_id} {cli._flag(name)}")


@pytest.mark.parametrize("exp_id,name", _unread_flags())
def test_experiment_rejects_a_flag_its_id_does_not_read(tmp_path, capsys, monkeypatch, exp_id, name):
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("the experiment ran"))
    value = _FIELD_VALUES[name]
    values = value if isinstance(value, list) else [value]
    code, out, err = run(capsys, "experiment", "--id", exp_id, cli._flag(name), *map(str, values),
                         "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_CONFIG and out == ""
    assert f"--id {exp_id} does not read {cli._flag(name)};" in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_reads_every_flag_it_is_given_in_the_benchmark(tmp_path, capsys, monkeypatch):
    # the benchmark's command lines stay valid under the per-id flag table
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench import bench
    finally:
        sys.path.pop(0)
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, **kwargs: runs.append(cfg))
    for workload in (w["name"] for w in bench.spec()["workloads"]):
        for call in bench.plan(workload, 1):
            if call.argv[0] == "experiment":
                code, _, err = run(capsys, *(a.format(out=tmp_path) for a in call.argv))
                assert code == EXIT_OK, (call.argv, err)
    assert {cfg.experiment for cfg in runs} == set(experiments.EXPERIMENT_IDS)


@pytest.mark.parametrize("doc,key", [
    ({"reproducible": "yes"}, "reproducible"),
    ({"q": None}, "q"),
    ({"q": 5.5}, "q"),
    ({"q": True}, "q"),
    ({"delta": "0.5"}, "delta"),
    ({"params": 1}, "params"),
    ({"params": [0, "1"]}, "params"),
    ({"r-max": "3"}, "r-max"),
])
def test_config_value_of_the_wrong_json_type_is_config_error(tmp_path, capsys, doc, key):
    out_dir = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"id": "result1", "out_dir": str(out_dir), **doc}))
    code, out, err = run(capsys, "experiment", "--config", str(cfg_path))
    assert code == EXIT_CONFIG and out == ""
    assert f"config key {key!r} must be" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ("estimate", "--circuit", "xxz-hva", "--param", "0", "--exact"),
    ("freq", "--circuit", "xxz-hva", "--param", "0"),
    ("rule", "--freqs", "1,2", "--d", "1", "--equidistant"),
])
def test_only_experiment_reads_a_config_file(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"q": 6, "seed": 3}))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --config" in captured.err
    assert captured.err.startswith(_TOP_USAGE)


def test_python_m_shiftrules_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "shiftrules", "--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: shiftrules")


@pytest.mark.parametrize("argv", [(), ("--help",)], ids=["no command", "--help"])
def test_top_level_usage_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == (0 if argv else 2)
    text = captured.out + captured.err
    assert "{freq,rule,estimate,experiment}" in text


@pytest.mark.parametrize("command,flags", [
    ("freq", ("--eigs", "--circuit", "--dedup-tol", "--no-prune")),
    ("rule", ("--freqs", "--optimize", "--generations", "--seed")),
    ("estimate", ("--rule-json", "--scheme", "--n-total", "--exact")),
    ("experiment", ("--id", "--config", "--r-max", "--reproducible")),
])
def test_each_command_help_shows_its_flags(capsys, command, flags):
    # main builds only the invoked command's flags
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: shiftrules {command}")
    assert all(flag in out for flag in flags)


def test_an_unknown_command_exits_2_listing_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--q", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(name in err for name in ("'freq'", "'rule'", "'estimate'", "'experiment'"))


def test_the_full_parser_holds_every_command_flag():
    full = cli.build_parser()
    subparsers = next(a for a in full._actions if isinstance(a, cli.argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        only = next(a for a in cli.build_parser(name)._actions if isinstance(a, cli.argparse._SubParsersAction))
        assert [a.option_strings for a in only.choices[name]._actions] == [a.option_strings for a in sub._actions]


def _clear_caches():
    for module in (epsr, qsim, variance, experiments):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


_CACHED_RUNS = (("result1", "--q", "6"), ("result2", "--q", "5", "--params", "0", "7", "--repetitions", "50"))


def test_warm_caches_give_the_bytes_of_cold_ones(tmp_path, capsys):
    # rules, node sets and slice components are memoised in process; a second
    # run in the same process must write what the first one wrote
    _clear_caches()
    outputs = []
    for attempt in ("cold", "warm"):
        for argv in _CACHED_RUNS:
            out_dir = tmp_path / attempt / argv[0]
            code, _, err = run(capsys, "experiment", "--id", *argv, "--seed", "2", "--reproducible",
                               "--out-dir", str(out_dir))
            assert code == EXIT_OK, err
        outputs.append({str(p.relative_to(tmp_path / attempt)): p.read_bytes()
                        for p in sorted((tmp_path / attempt).rglob("*.csv"))})
    assert len(outputs[0]) == 1 + 2
    assert outputs[1] == outputs[0]


def test_result1_solves_each_distinct_rule_once(tmp_path, capsys, monkeypatch):
    solves = Counter()
    solve = epsr.solve_coefficients

    def counted(nodes, fs, d):
        solves[nodes, fs, d] += 1
        return solve(nodes, fs, d)

    _clear_caches()
    monkeypatch.setattr(epsr, "solve_coefficients", counted)
    code, _, err = run(capsys, "experiment", "--id", "result1", "--q", "6", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    # 8 parameters x 6 orders, but the slices share their frequency sets
    assert set(solves.values()) == {1}
    assert len(solves) < 48


_THREE_EXPERIMENTS = """
import sys
from shiftrules.cli import main
for argv in (["experiment", "--id", "landscape", "--reproducible", "--out-dir", "landscape"],
             ["experiment", "--id", "result2", "--q", "5", "--params", "0", "1", "--repetitions", "200",
              "--reproducible", "--out-dir", "result2"],
             ["experiment", "--id", "result1", "--q", "10", "--seed", "4", "--reproducible", "--out-dir", "result1"]):
    if main(argv) != 0:
        sys.exit(1)
"""


def test_seeded_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the same relative --out-dir in both runs, so the config echoes match too
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREE_EXPERIMENTS], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append({str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()})
    # each experiment's CSVs, then its config echo
    assert len(outputs[0]) == (6 + 1) + (2 + 1) + (1 + 1)
    assert outputs[1] == outputs[0]
