"""Spans around the public functions of the shiftrules modules.

``Tracer.install`` replaces every public function of the seven modules at
every module attribute that holds it, so a call is seen whether it goes
through ``epsr.solve_coefficients`` or through the name ``variance``
imported.  Each call records one span: name, start, end and parent span.
A traced round runs in a process of its own, so the process is the run id.
Spans stay in memory, in flat arrays, until the round ends;
``layer_metrics`` then folds them into calls, busy time and self time
(duration minus the time covered by child spans) per function.

A few spans also feed work counters read off their arguments or results:
singular solves, optimizer generations, rule evaluations, shots, and the
computed byte sizes of generator matrices and statevectors.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "shiftrules"
MODULES = ("cli", "experiments", "variance", "epsr", "qsim", "trigpoly", "spectra")

#: Functions whose calls, busy time and self time are per-layer metrics.
TIMED = ("epsr.solve_coefficients", "variance.optimize_shifts_global", "variance.scan_landscape",
         "variance.write_landscape_csv", "qsim.slice_frequencies", "qsim.apply_circuit",
         "qsim.expectation", "epsr.apply_rule", "experiments.sampled_estimates", "variance.allocate",
         "variance.integer_shot_counts", "trigpoly.fit_least_squares", "trigpoly.central_difference",
         "spectra.positive_difference_frequencies", "experiments.valid_nodes_for", "cli.main")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.modules = [__import__(f"{PACKAGE}.{m}", fromlist=[m]) for m in MODULES]
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counter: Counter = Counter()
        self._shot_counts: list = []

    def install(self) -> None:
        prefix = PACKAGE + "."
        found = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(prefix) and obj.__name__ == attr):
                    found[id(obj)] = obj
        hooks = self._hooks()
        wrappers = {}
        for key, fn in found.items():
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
            self.names.append(name)
            wrappers[key] = self._wrap(fn, len(self.names) - 1, hooks.get(name))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

    # -- span recording ---------------------------------------------------

    def _wrap(self, fn, nid: int, hook):
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        counter = self.counter
        label = self.names[nid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                counter[f"{label}!{type(exc).__name__}"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(counter, args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        def generations(c, args, kwargs, result):
            c["variance.de_generations"] += int(result.iterations)

        def evaluations(c, args, kwargs, result):
            c["epsr.evaluations"] += len(_arg(args, kwargs, 0, "rule").expanded_coeffs)

        def generator_bytes(c, args, kwargs, result):
            c["qsim.generator_bytes"] += 16 * 4 ** _arg(args, kwargs, 0, "circuit").q

        def state_bytes(c, args, kwargs, result):
            c["qsim.state_bytes"] += 16 * 2 ** _arg(args, kwargs, 0, "circuit").q

        def shot_counts(c, args, kwargs, result):
            self._shot_counts.append(np.asarray(result))

        def shots(c, args, kwargs, result):
            # sampled_estimates integerizes one allocation per scheme, then
            # draws that many shots per repetition on each nonzero coefficient
            gamma = np.asarray(_arg(args, kwargs, 1, "rule").expanded_coeffs)
            reps = int(_arg(args, kwargs, 5, "repetitions"))
            n_schemes = len(_arg(args, kwargs, 3, "schemes"))
            drawn = self._shot_counts[-n_schemes:]
            c["experiments.repetitions"] += reps
            c["experiments.shots_drawn"] += reps * int(sum(n[gamma != 0].sum() for n in drawn))
            self._shot_counts.clear()

        return {
            "variance.optimize_shifts_global": generations,
            "epsr.apply_rule": evaluations,
            "qsim.slice_frequencies": generator_bytes,
            "qsim.apply_circuit": state_bytes,
            "variance.integer_shot_counts": shot_counts,
            "experiments.sampled_estimates": shots,
        }

    # -- aggregation --------------------------------------------------------

    def span_count(self) -> int:
        return len(self._start)

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        n, nn = len(self._start), len(self.names)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(name, minlength=nn)
        busy = np.bincount(name, weights=dur, minlength=nn)
        selft = np.bincount(name, weights=own, minlength=nn)
        return {self.names[k]: (int(calls[k]), float(busy[k]), float(selft[k])) for k in range(nn) if calls[k]}

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """The per-layer metrics of the round, given its raw wall time."""
        agg = self.aggregate()
        counter = self.counter

        def get(name):
            return agg.get(name, (0, 0.0, 0.0))

        def per_call(busy, calls, unit):
            return busy / calls * unit if calls else 0.0

        m: dict[str, float] = {}
        for name in TIMED:
            calls, busy, own = get(name)
            m[f"{name}.calls"], m[f"{name}.busy_s"], m[f"{name}.self_s"] = calls, busy, own

        calls, busy = m["epsr.solve_coefficients.calls"], m["epsr.solve_coefficients.busy_s"]
        singular = counter["epsr.solve_coefficients!SingularNodesError"]
        m["epsr.solve_coefficients.us_per_call"] = per_call(busy, calls, 1e6)
        m["epsr.solve_coefficients.singular"] = singular
        m["epsr.solve_coefficients.accept_ratio"] = (calls - singular) / calls if calls else 0.0

        objective = [get("variance.F_wgt"), get("variance.F_unif")]
        calls = sum(o[0] for o in objective)
        busy = sum(o[1] for o in objective)
        raised = counter["variance.F_wgt!SingularNodesError"] + counter["variance.F_unif!SingularNodesError"]
        m["variance.objective.calls"] = calls
        m["variance.objective.busy_s"] = busy
        m["variance.objective.us_per_call"] = per_call(busy, calls, 1e6)
        m["variance.objective.inf_frac"] = raised / calls if calls else 0.0

        m["qsim.apply_circuit.ms_per_call"] = per_call(
            m["qsim.apply_circuit.busy_s"], m["qsim.apply_circuit.calls"], 1e3)
        m["experiments.sampled_estimates.us_per_repetition"] = per_call(
            m["experiments.sampled_estimates.busy_s"], counter["experiments.repetitions"], 1e6)
        for name in ("variance.de_generations", "epsr.evaluations", "experiments.shots_drawn",
                     "qsim.generator_bytes", "qsim.state_bytes"):
            m[name] = counter[name]

        layer_self: Counter = Counter()
        for name, (_, _, own) in agg.items():
            layer_self[name.split(".", 1)[0]] += own
        for module in MODULES:
            m[f"layer.{module}.self_s"] = layer_self[module]
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - sum(layer_self.values())
        return m
