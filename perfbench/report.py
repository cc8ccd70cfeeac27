"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py                       # every workload, seed 1, plus a traced run
    python3 perfbench/report.py --workloads landscape --seeds 1-10 --no-trace

Each run is a fresh ``run.py`` process of BENCHMARK.json's ``run_seconds``.  For every end-to-end metric the
table gives the median over seeds, the quartile spread (Q3 - Q1) / median
as ``statistics.quantiles(values, n=4)`` computes it, and the metric's
bound from BENCHMARK.json.  Items that failed their output check are
listed.  A traced run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.lstrip().startswith("FAIL")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    p.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            doc, fails = run_once(spec, workload, seed, 0)
            print(f"{workload} seed {seed}: correct={doc['correct']} failed {doc['failed']} of "
                  f"{doc['attempted']}  " + "  ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
                  flush=True)
            for line in fails:
                print(f"    {line.strip()}")
            status |= not doc["correct"]
            attempted += doc["attempted"]
            failed += doc["failed"]
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {'metric':14s} {'unit':6s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"{'':{len(workload) + 2}s}{name:14s} {units[name]:6s} {med:12.6g} {spread:8.3f} {bounds[name]:6.2f}")
        print(f"{'':{len(workload) + 2}s}{'failed_frac':14s} {'ratio':6s} {failed / attempted:12.6g}"
              f"   ({failed} of {attempted} items over all runs)")
        if not args.no_trace:
            doc, _ = run_once(spec, workload, _seeds(args.seeds)[0], 1)
            print(f"\n{workload} per-layer (traced run, seed {_seeds(args.seeds)[0]}):")
            for name, m in doc["metrics"].items():
                if m["value"]:
                    print(f"    {name:52s} {m['value']:14.6g} {m['unit']}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
