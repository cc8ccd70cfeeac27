"""Workloads, rounds and metrics of the shiftrules benchmark.

A workload is a fixed list of ``shiftrules`` command lines (a *round*).  A
round runs in a fresh process (``round.py``), which drives the user path,
``shiftrules.cli.main``, once per command line.  A run repeats the round,
with identical inputs, until the next round would overrun the time budget,
and reports medians over rounds.  Every distinct output is checked by
``checks`` after the timed phase.

With tracing on, rounds alternate untraced / traced; the traced ones give
the per-layer metrics and the difference of the two medians is the tracing
overhead.  The metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from . import reference as ref

ROOT = Path(__file__).resolve().parent.parent
ROUND_SCRIPT = Path(__file__).resolve().parent / "round.py"


@cache
def spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# calibration
#
# The host's speed for single-threaded numpy code drifts by 20-50% over
# seconds to minutes (see README), far beyond any usable bound.  A fixed
# kernel of the benchmark's own numpy code runs in this process whenever a
# round process asks for it: before the first call of a round, after every
# call and every SAMPLE_INTERVAL_S (round.py) during an untraced call.  Each
# call's times are scaled by CALIBRATION_REF_S over the mean kernel time
# from the kernel before it to the kernel after it, i.e. expressed in
# seconds at the speed at which the kernel takes CALIBRATION_REF_S.  The
# kernel gives similar time to what the program spends its time on: tiny
# solves behind Python calls, statevector-sized vector arithmetic and a
# complex Hermitian eigensolve too large for the per-core cache, which
# slows with the host's memory traffic as the q=10 generator spectra do.

#: Median kernel time on the reference machine (2 vCPU, see README).
CALIBRATION_REF_S = 0.11


@cache
def _kernel_inputs():
    herm = np.random.default_rng(1).standard_normal((512, 512, 2)) @ np.array([1.0, 1j])
    return (ref.HvaReference(10, 2), np.random.default_rng(0).uniform(-np.pi, np.pi, (8, 8)),
            herm + herm.conj().T, np.random.default_rng(2).uniform(0.5, 1.5, (3, 3)))


def calibration_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    sim, thetas, herm, small = _kernel_inputs()
    t0 = time.perf_counter()
    ones = np.ones(3)
    for i in range(2000):
        m = small + i * 1e-4
        np.linalg.solve(m.T, ones)
        np.linalg.svd(m, compute_uv=False)
    for _ in range(4):
        sim.energies(thetas)
    np.linalg.eigvalsh(herm)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workload plans


@dataclass(frozen=True)
class Call:
    """One command line of a round.

    ``{out}`` stands for the call's own output directory, given relative to
    the round directory so that config echoes are the same in every round.
    """

    label: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[Path], checks.Verdict]


def _combine(verdicts) -> checks.Verdict:
    verdicts = list(verdicts)
    out = checks.Verdict(sum(v.items for v in verdicts))
    for v in verdicts:
        out.failed += v.failed
        out.messages += v.messages
    return out


# node-search: the DE seed stays at the CLI default, so every run times the
# same search trajectories.  Seeded trajectories stop early after a number of
# generations that varies 20-30% per search, which made the round time vary
# more between seeds than the wall-time bound allows.
DE_R_MAX, DE_D_MAX = 4, 4
UNIF_SETS = ((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (0.7, 1.9, 3.2))
LANDSCAPE_ITEMS = 6 * 61 * 61
SAMPLING_REPS = 2000
SAMPLING_PARAMS = tuple(range(8))
RESULT3_PARAMS = (0, 1)
GAUSSIAN_PARAMS = (0, 1)


def _check_landscape_dir(out: Path, scheme: str, seed: int) -> checks.Verdict:
    return _combine(checks.check_landscape(out / f"landscape_d{d}.csv", d, scheme, seed)
                    for d in range(1, 7))


def plan(workload: str, seed: int) -> list[Call]:
    """The command lines of one round of ``workload``, derived from ``seed``."""
    s = str(seed)
    if workload == "node-search":
        calls = [Call("de-sweep",
                      ("experiment", "--id", "de-sweep", "--scheme", "weighted", "--r-max", str(DE_R_MAX),
                       "--d-max", str(DE_D_MAX), "--reproducible", "--out-dir", "{out}"),
                      DE_R_MAX * DE_D_MAX,
                      lambda out: checks.check_de_sweep(out / "de_sweep_errors.csv", DE_R_MAX, DE_D_MAX))]
        for freqs in UNIF_SETS:
            text = ",".join(f"{w:g}" for w in freqs)
            calls.append(Call(f"unif-{text}",
                              ("rule", "--freqs", text, "--d", "1", "--optimize", "unif",
                               "--out", "{out}/rule.json"),
                              1, lambda out, f=freqs: checks.check_unif_rule(out / "rule.json", f, seed)))
        return calls
    if workload == "landscape":
        return [Call(f"landscape-{scheme}",
                     ("experiment", "--id", "landscape", "--scheme", scheme, "--reproducible",
                      "--out-dir", "{out}"),
                     LANDSCAPE_ITEMS, partial(_check_landscape_dir, scheme=scheme, seed=seed))
                for scheme in ("weighted", "uniform")]
    if workload == "testbed-q10":
        sim = ref.HvaReference(10, 2)
        return [Call("result1-q10",
                     ("experiment", "--id", "result1", "--q", "10", "--seed", s, "--reproducible",
                      "--out-dir", "{out}"),
                     48, lambda out: checks.check_result1(out, sim, seed))]
    if workload == "sampling-q5":
        sim = ref.HvaReference(5, 2)
        reps = str(SAMPLING_REPS)

        def sampling(label, exp, params, method, checker, per_param):
            argv = ("experiment", "--id", exp, "--params", *map(str, params), "--repetitions", reps,
                    "--method", method, "--seed", s, "--reproducible", "--out-dir", "{out}")
            return Call(label, argv, per_param * len(params) * SAMPLING_REPS,
                        lambda out: checker(out, sim, seed, params, SAMPLING_REPS))

        return [sampling("result2-multinomial", "result2", SAMPLING_PARAMS, "multinomial", checks.check_result2, 2),
                sampling("result3-multinomial", "result3", RESULT3_PARAMS, "multinomial", checks.check_result3, 3),
                sampling("result2-gaussian", "result2", GAUSSIAN_PARAMS, "gaussian", checks.check_result2, 2)]
    raise ValueError(f"unknown workload {workload!r}; choose from {[w['name'] for w in spec()['workloads']]}")


# ---------------------------------------------------------------------------
# rounds


def round_command(calls: list[Call], traced: bool, probe: bool = False) -> list[str]:
    """The command line of a round process (see round.py)."""
    spec = {"calls": [[c.label, [a.replace("{out}", c.label) for a in c.argv]] for c in calls],
            "traced": traced}
    return [sys.executable, str(ROUND_SCRIPT), *(["--probe"] if probe else []), json.dumps(spec)]


def _run_round(calls: list[Call], traced: bool, round_dir: Path, kernels: list[float]) -> dict:
    """Run one round in a fresh process, serving its calibration requests."""
    doc = None
    with subprocess.Popen(round_command(calls, traced), cwd=round_dir, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if line == "cal\n":
                kernels.append(calibration_seconds())
                proc.stdin.write(f"{kernels[-1]!r}\n")
                proc.stdin.flush()
            else:
                doc = json.loads(line)
    if proc.returncode != 0 or doc is None:
        raise RuntimeError(f"round process exited with code {proc.returncode}")
    return doc


def _digest(directory: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(directory)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    nondeterminism: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced rounds, raw seconds
    scaled_walls: list[float] = field(default_factory=list)  # untraced rounds, calibrated
    scaled_cpus: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    items_per_round: int = 0
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)  # per traced round
    spans: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.nondeterminism


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    """Time rounds of ``workload`` for about ``seconds``, then check every distinct output.

    Every round is a fresh process (round.py).  ``work`` must be an empty
    directory; call outputs are written below it.
    """
    calls = plan(workload, seed)
    res = RunResult(items_per_round=sum(c.items for c in calls))
    kept: dict[tuple[str, str], Path] = {}
    outcomes: Counter = Counter()  # (label, "error"|"digest", text) -> rounds
    bytes_per_round = []
    durations: dict[bool, list[float]] = {False: [], True: []}  # whole rounds, by traced
    begin = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        round_dir = work / "round"
        for call in calls:
            (round_dir / call.label).mkdir(parents=True)
        t0 = time.perf_counter()
        doc = _run_round(calls, traced, round_dir, res.calibrations)
        durations[traced].append(time.perf_counter() - t0)
        wall = sum(c["wall"] for c in doc["calls"])
        if traced:
            res.traced_walls.append(wall)
            res.layers.append(doc["layers"])
            res.spans += doc["spans"]
        else:
            scales = [CALIBRATION_REF_S / statistics.mean(c["kernels"]) for c in doc["calls"]]
            res.walls.append(wall)
            res.scaled_walls.append(sum(c["wall"] * s for c, s in zip(doc["calls"], scales)))
            res.scaled_cpus.append(sum(c["cpu"] * s for c, s in zip(doc["calls"], scales)))
            res.peak_rss_mb = max(res.peak_rss_mb, doc["peak_rss_mb"])
        written = 0
        for call, outcome in zip(calls, doc["calls"]):
            res.attempted += call.items
            if outcome["error"] is not None:
                outcomes[(call.label, "error", outcome["error"])] += 1
                continue
            digest, size = _digest(round_dir / call.label)
            written += size
            outcomes[(call.label, "digest", digest)] += 1
            if res.digests.setdefault(call.label, digest) != digest:
                res.nondeterminism.append(f"{call.label} output changed in round {k}")
            if (call.label, digest) not in kept:
                kept[(call.label, digest)] = (round_dir / call.label).rename(work / f"kept{len(kept)}")
        bytes_per_round.append(written)
        shutil.rmtree(round_dir)
        k += 1
        elapsed = time.perf_counter() - begin
        typical = max(statistics.median(d) for d in durations.values() if d)
        still_needed = trace and not (res.walls and res.traced_walls)
        if not still_needed and elapsed + typical > seconds:
            break

    by_label = {c.label: c for c in calls}
    for (label, kind, text), n_rounds in outcomes.items():
        if kind == "error":
            res.failed += by_label[label].items * n_rounds
            res.messages.append(f"{label}: {text} (in {n_rounds} rounds)")
            continue
        verdict = by_label[label].check(kept[(label, text)])
        res.failed += verdict.failed * n_rounds
        res.messages += [f"{label}: {m}" for m in verdict.messages]

    if len(set(bytes_per_round)) > 1 and all(kind == "digest" for _, kind, _ in outcomes):
        res.nondeterminism.append(f"bytes written per round {sorted(set(bytes_per_round))}")
    res.counts["experiments.bytes_written"] = bytes_per_round[0]
    if trace:
        _layer_metrics(res)
    else:
        wall = statistics.median(res.scaled_walls)
        res.metrics.update(wall_s=wall, items_per_s=res.items_per_round / wall,
                           cpu_s=statistics.median(res.scaled_cpus), peak_rss_mb=res.peak_rss_mb)
    return res


def _layer_metrics(res: RunResult) -> None:
    """Per-layer metrics: medians over traced rounds; counts must agree exactly."""
    for layers in res.layers:
        layers["experiments.bytes_written"] = res.counts["experiments.bytes_written"]
    for metric in spec()["per_layer"]:
        name = metric["name"]
        if name == "tracing_overhead_s":
            continue
        values = [m[name] for m in res.layers]
        if metric["unit"] in ("count", "B", "B_computed"):
            if len(set(values)) > 1:
                res.nondeterminism.append(f"{name} differs between traced rounds {values}")
            res.counts[name] = values[0]
        res.metrics[name] = statistics.median(values)
    # raw, not calibrated: only untraced rounds are sampled, so the two kinds
    # would be scaled by kernels taken at different rates (the calibrated
    # difference read negative); the rounds alternate, so both medians see
    # the same host speed
    res.metrics["tracing_overhead_s"] = statistics.median(res.traced_walls) - statistics.median(res.walls)
