"""The output checks pass real program output and count corrupted output as failed.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench import reference as ref

SEED = 4
REPS = 400


def _cli(argv, cwd: Path) -> None:
    from shiftrules import cli

    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("outputs")
    s = str(SEED)
    _cli(["experiment", "--id", "de-sweep", "--r-max", "2", "--d-max", "2", "--reproducible",
          "--out-dir", "de"], base)
    _cli(["rule", "--freqs", "1,2,3", "--d", "1", "--optimize", "unif", "--out", "rule.json"], base)
    for scheme in ("weighted", "uniform"):
        _cli(["experiment", "--id", "landscape", "--scheme", scheme, "--reproducible",
              "--out-dir", f"land-{scheme}"], base)
    _cli(["experiment", "--id", "result1", "--seed", s, "--reproducible", "--out-dir", "r1"], base)
    for exp in ("result2", "result3"):
        _cli(["experiment", "--id", exp, "--params", "0", "1", "--repetitions", str(REPS), "--seed", s,
              "--reproducible", "--out-dir", exp], base)
    return base


@pytest.fixture
def work(outputs, tmp_path) -> Path:
    """A private copy of the outputs that a test may corrupt."""
    dst = tmp_path / "out"
    shutil.copytree(outputs, dst)
    return dst


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


SIM5 = ref.HvaReference(5, 2)


def _de(work):
    return checks.check_de_sweep(work / "de" / "de_sweep_errors.csv", 2, 2)


def _rule(work):
    return checks.check_unif_rule(work / "rule.json", (1.0, 2.0, 3.0), SEED)


def _land(work, d=1, scheme="weighted"):
    return checks.check_landscape(work / f"land-{scheme}" / f"landscape_d{d}.csv", d, scheme, SEED)


def _r1(work):
    return checks.check_result1(work / "r1", SIM5, SEED)


def _r2(work):
    return checks.check_result2(work / "result2", SIM5, SEED, (0, 1), REPS)


def _r3(work):
    return checks.check_result3(work / "result3", SIM5, SEED, (0, 1), REPS)


@pytest.mark.parametrize("check", [_de, _rule, _r1, _r2, _r3])
def test_real_output_passes(work, check):
    v = check(work)
    assert v.failed == 0, v.messages


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("scheme", ["weighted", "uniform"])
def test_real_landscape_passes(work, d, scheme):
    v = _land(work, d, scheme)
    assert (v.items, v.failed) == (3721, 0), v.messages


# -- node search ---------------------------------------------------------------


def test_de_sweep_perturbed_objective(work):
    _edit_csv(work / "de" / "de_sweep_errors.csv", lambda rows: rows[4].__setitem__(4, "4.00001"))
    assert _de(work).failed == 1


def test_de_sweep_large_node_error(work):
    _edit_csv(work / "de" / "de_sweep_errors.csv", lambda rows: rows[1].__setitem__(3, "0.002"))
    assert _de(work).failed == 1


def test_de_sweep_missing_row(work):
    _edit_csv(work / "de" / "de_sweep_errors.csv", lambda rows: rows.pop(2))
    assert _de(work).failed == 1


def _edit_rule(work, edit):
    path = work / "rule.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_rule_tampered_gamma(work):
    _edit_rule(work, lambda doc: doc["expanded"]["gamma"].__setitem__(0, 123.0))
    v = _rule(work)
    assert v.failed == 1 and "not exact" in v.messages[0]


def test_rule_wrong_objective(work):
    _edit_rule(work, lambda doc: doc.__setitem__("objective", doc["objective"] * (1 + 1e-6)))
    assert _rule(work).failed == 1


def test_rule_above_equidistant_objective(work):
    # b rescaled consistently with its objective: still exact-looking b, but worse than equidistant
    def edit(doc):
        b_eq, _ = ref.rule_coefficients(ref.equidistant_free_nodes(3, 1), (1.0, 2.0, 3.0), 1)
        doc["b"] = list(1.01 * b_eq)
        doc["objective"] = 0.5 * float(1.01 * b_eq @ (1.01 * b_eq))
    _edit_rule(work, edit)
    v = _rule(work)
    assert v.failed == 1 and any("above F_unif" in m for m in v.messages)


# -- landscape -------------------------------------------------------------------


def _argmin_row(path: Path) -> int:
    _, rows = checks._rows(path)
    return 1 + int(np.argmin([float(r[2]) for r in rows]))


@pytest.mark.parametrize("scheme", ["weighted", "uniform"])
def test_landscape_perturbed_value(work, scheme):
    path = work / f"land-{scheme}" / "landscape_d3.csv"
    i = _argmin_row(path)
    _edit_csv(path, lambda rows: rows[i].__setitem__(2, repr(float(rows[i][2]) * (1 + 1e-7))))
    assert _land(work, 3, scheme).failed == 3721


def test_landscape_missing_row(work):
    _edit_csv(work / "land-weighted" / "landscape_d2.csv", lambda rows: rows.pop(100))
    assert _land(work, 2).failed == 3721


def test_landscape_moved_minimum(work):
    # a new, lower minimum far from the equidistant nodes
    _edit_csv(work / "land-weighted" / "landscape_d1.csv", lambda rows: rows[5].__setitem__(2, "2.0000001"))
    v = _land(work, 1)
    assert v.failed == 3721 and any("argmin" in m for m in v.messages)


def test_landscape_finite_on_diagonal(work):
    _edit_csv(work / "land-uniform" / "landscape_d4.csv", lambda rows: rows[1].__setitem__(2, "1.5"))
    assert _land(work, 4, "uniform").failed == 3721


# -- testbed ---------------------------------------------------------------------


def test_result1_perturbed_derivative(work):
    _edit_csv(work / "r1" / "result1_errors.csv",
              lambda rows: rows[9].__setitem__(3, repr(float(rows[9][3]) + 1e-3)))
    assert _r1(work).failed == 1


def test_result1_wrong_base_params(work):
    path = work / "r1" / "result1_config.json"
    doc = json.loads(path.read_text())
    doc["base_params"][0] += 1e-9
    path.write_text(json.dumps(doc))
    assert _r1(work).failed == 48


def test_result1_missing_order(work):
    _edit_csv(work / "r1" / "result1_errors.csv", lambda rows: rows.pop(6))
    assert _r1(work).failed == 1


# -- sampling --------------------------------------------------------------------


def _shift_column(path: Path, col: int, fn) -> None:
    def edit(rows):
        vals = np.array([float(r[col]) for r in rows[1:]])
        for r, v in zip(rows[1:], fn(vals)):
            r[col] = repr(float(v))
    _edit_csv(path, edit)


def test_result2_biased_column(work):
    _shift_column(work / "result2" / "result2_theta1.csv", 2, lambda v: v + 0.5)
    v = _r2(work)
    assert v.failed == REPS and "SE from exact" in v.messages[0]


def test_result2_wrong_variance_ratio(work):
    # spread the uniform column 2x around its own mean: unbiased but the ratio moves 4x
    _shift_column(work / "result2" / "result2_phi1.csv", 1, lambda v: v.mean() + 2 * (v - v.mean()))
    v = _r2(work)
    assert v.failed == 2 * REPS and "variance ratio" in v.messages[0]


def test_result3_random_nodes_not_noisier(work):
    def edit(rows):
        for r in rows[1:]:
            r[2] = r[1]
    _edit_csv(work / "result3" / "result3_theta1.csv", edit)
    v = _r3(work)
    assert v.failed == REPS and "variance factor" in v.messages[0]


def test_result3_truncated(work):
    _edit_csv(work / "result3" / "result3_phi1.csv", lambda rows: rows.pop())
    assert _r3(work).failed == 3 * REPS
