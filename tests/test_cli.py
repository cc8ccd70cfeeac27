import json
import math

import numpy as np
import pytest

from shiftrules.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


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
    assert doc["certificate"] == "global-equidistant"
    assert doc["equidistant_error"] <= 1e-3


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
        want = variance.predicted_variance(rule.solve_coeffs, "even", scheme).predicted_scaled_variance
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


# --- estimate -----------------------------------------------------------------

def test_estimate_exact_matches_reference(capsys):
    code, out, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--q", "5", "--p", "2",
                       "--param", "0", "--d", "1", "--exact")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "repetition,estimate"
    value = float(lines[1].split(",")[1])

    from shiftrules.experiments import random_base_params, xxz_hva_setup
    from shiftrules.qsim import cost_slice
    from shiftrules.trigpoly import central_difference

    circuit, obs = xxz_hva_setup(5, 2, 0.5)
    theta = random_base_params(5, 2, 0)
    sl = cost_slice(circuit, obs, theta, 0)
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


def test_estimate_shots_inf_is_exact_alias(capsys):
    code1, out1, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", "--exact")
    code2, out2, _ = run(capsys, "estimate", "--circuit", "xxz-hva", "--param", "0", "--shots", "inf")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


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
    code, _, err = run(capsys, "experiment", "--id", exp_id, "--out-dir", str(out_dir),
                       "--repetitions", "10", "--params", "0", "--emit-gnuplot")
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
