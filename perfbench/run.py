"""Run one workload of the shiftrules benchmark and print its metrics.

    python3 perfbench/run.py --workload node-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it repeat the metrics with their units, the run
environment and every failing item.

The process pins BLAS and OpenMP to one thread and unsets EPSR_THREADS
before numpy is loaded; every round process it starts inherits that, so
each round is one single-threaded process.  Set-up time is the median wall
time of several fresh round processes that only set up (interpreter start,
imports) and exit, scaled by paired bare numpy start-ups; round times are
scaled by a calibration kernel (see ``bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 9
#: Bare numpy start-up time on the reference machine (2 vCPU, see README).
SETUP_REF_S = 0.12
ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _wall(cmd) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which rounds the measured time up to the next poll
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _setup_seconds(cmd) -> float:
    """Median set-up time of fresh probe processes, calibrated by bare ones.

    Each probe runs a round process's set-up and exits; it is paired with a bare
    ``python3 -c "import numpy"`` process started just before it, and its
    time is scaled by SETUP_REF_S over the bare time.  Start-up time follows
    the host's speed like the rounds do, but not the kernel's.
    """
    bare = [sys.executable, "-c", "import numpy"]
    ratios = []
    for _ in range(SETUP_PROBES):
        base = _wall(bare)
        ratios.append(_wall(cmd) / base)
    return statistics.median(ratios) * SETUP_REF_S


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k) for k in FIXED_ENV},
        "EPSR_THREADS": os.environ.get("EPSR_THREADS"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("EPSR_THREADS", None)
    os.environ.update(FIXED_ENV)
    if not (ROOT / "src" / "shiftrules" / "cli.py").is_file():
        print(f"error: no shiftrules sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import bench

    try:
        calls = bench.plan(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        setup_s = _setup_seconds(bench.round_command(calls, traced=False, probe=True))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        res = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not args.trace:
        res.metrics["setup_s"] = setup_s
    metrics = bench.spec()["per_layer" if args.trace else "end_to_end"]

    print(f"environment {json.dumps(_environment())}")
    rounds = f"{len(res.walls)} untraced" + (f" + {len(res.traced_walls)} traced" if args.trace else "")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{res.items_per_round} items per round, {res.spans} spans kept")
    print("  raw round walls (s): untraced " + " ".join(f"{w:.3f}" for w in res.walls)
          + ("; traced " + " ".join(f"{w:.3f}" for w in res.traced_walls) if args.trace else ""))
    print("  calibration kernel (s): " + " ".join(f"{c:.4f}" for c in res.calibrations)
          + f"; times below are scaled to {bench.CALIBRATION_REF_S} s per kernel")
    for m in metrics:
        print(f"  {m['name']:52s} {res.metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':52s} {res.failed / res.attempted:>16.6g} ratio "
          f"({res.failed} of {res.attempted} items)")
    for message in res.messages[:50]:
        print(f"  FAIL {message}")
    if len(res.messages) > 50:
        print(f"  ... {len(res.messages) - 50} more failure messages")
    for message in res.nondeterminism:
        print(f"  FAIL nondeterministic: {message}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": res.metrics[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
