"""One round of a workload, in a fresh process of its own.

    python3 perfbench/round.py [--probe] SPEC

``SPEC`` is a JSON object: ``calls``, a list of [label, argv] pairs, and
``traced``.  The process runs each argv through ``shiftrules.cli.main`` in
its working directory, the way one ``shiftrules`` command runs in one
process, so nothing the program caches in memory carries over between
rounds.  ``bench.run_workload`` starts it and reads its standard output.

Time is calibrated by a kernel that runs in the parent process: this
process writes ``cal`` and waits for the kernel's seconds on its standard
input, before the first call, after every call and, in untraced rounds,
every SAMPLE_INTERVAL_S during a call (that wait is taken off the call's
time).  Its CPU time and peak resident set therefore hold only the
program's work.  The last line it writes is the round's result as JSON.

With ``--probe`` it exits right after its set-up, which ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_INTERVAL_S = 0.5


class Channel:
    """Requests for calibration kernel runs, answered by the parent."""

    def __init__(self):
        self.out = os.fdopen(os.dup(1), "w")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # the program's own output goes nowhere
        os.close(devnull)

    def calibrate(self) -> float:
        self.out.write("cal\n")
        self.out.flush()
        return float(sys.stdin.readline())

    def result(self, doc: dict) -> None:
        self.out.write(json.dumps(doc) + "\n")
        self.out.flush()


class Sampler:
    """Requests a kernel run SAMPLE_INTERVAL_S after the last one, while entered.

    The timer is re-armed only when a request has been answered, so that a
    signal cannot arrive while the handler waits on the pipe.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(self.channel.calibrate())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _peak_rss_mb() -> float:
    # VmHWM is the peak of this process image.  ru_maxrss would not do: at
    # exec, Linux carries the peak of the forking parent over into it.
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_call(cli, argv) -> str | None:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails the call's items; the round goes on
        return f"raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--probe", action="store_true", help="exit after set-up")
    p.add_argument("spec")
    args = p.parse_args(argv)
    spec = json.loads(args.spec)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from shiftrules import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "shiftrules":
        print(f"shiftrules imported from {cli.__file__}, not from src/", file=sys.stderr)
        return 2
    tracer = None
    if spec["traced"]:
        from perfbench.tracing import Tracer

        tracer = Tracer()
    if args.probe:
        return 0

    channel = Channel()
    if tracer is not None:
        tracer.install()
    kernels = [channel.calibrate()]
    calls = []
    for _, call_argv in spec["calls"]:
        # traced rounds are not sampled, so that spans hold no waits
        sampler = Sampler(channel)
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.nullcontext() if tracer else sampler:
            error = _run_call(cli, call_argv)
        wall = time.perf_counter() - t0 - sampler.spent
        cpu = time.process_time() - c0
        kernels += [*sampler.times, channel.calibrate()]
        calls.append({"wall": wall, "cpu": cpu, "kernels": kernels[-len(sampler.times) - 2:], "error": error})
    doc = {"calls": calls, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(sum(c["wall"] for c in calls))
        doc["spans"] = tracer.span_count()
    channel.result(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
