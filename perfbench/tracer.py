"""In-memory span tracer that wraps adpdock's public functions from outside.

Each wrapper is installed at the name its caller looks up (for example
``adp.simulate`` for collection, ``dockcli.simulate`` for evaluation), so
no file of the package changes. A span records name, start, end, parent
and repetition id; counts (simulation steps, VI iterations, vecs calls,
bytes written) are recorded at the same boundaries. Spans stay in memory
and are written out once, when the run ends.

A target that can no longer be found (renamed or inlined by a later
change) is listed in ``Tracer.missing``, and every metric that depends on
it is left out of the result rather than reported as zero.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, rep]
        self.counts = {}  # rep -> {counter: value}
        self.missing = []
        self._stack = []
        self._patches = []
        self._rep = None
        self._rep_counts = defaultdict(float)

    # -- repetitions -------------------------------------------------------
    def begin_rep(self, rep):
        self._rep = rep
        self._rep_counts = self.counts.setdefault(rep, defaultdict(float))

    def count(self, name, value=1):
        self._rep_counts[name] += value

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; the benchmark's own spans."""
        span = [len(self.spans), name, perf_counter(), None,
                self._stack[-1] if self._stack else None, self._rep]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------
    def wrap(self, name, owner, attr, after=None, before=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` may rewrite the arguments (used to time
        the controller callback passed to simulate); ``after(result,
        args, kwargs)`` records counts from the arguments and result.
        """
        original = self._lookup(owner, attr)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patch(owner, attr, original, wrapper)

    def counter(self, name, owner, attr):
        """Replace ``owner.attr`` by a wrapper that only counts calls.

        Used for functions called once per VI iteration, where a span per
        call would dominate what it measures.
        """
        original = self._lookup(owner, attr)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            self._rep_counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def timed_callback(self, name, fn):
        """Wrap a callback so the time spent inside it adds to counter ``name``."""
        counts = self._rep_counts

        def wrapped(*args):
            t0 = perf_counter()
            result = fn(*args)
            counts[name] += perf_counter() - t0
            return result

        return wrapped

    def _lookup(self, owner, attr):
        original = vars(owner).get(attr)
        if callable(original):
            return original
        label = f"{_label(owner)}.{attr}"
        if label not in self.missing:
            self.missing.append(label)
        return None

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def rep_spans(self, rep):
        return [s for s in self.spans if s[5] == rep]

    def dump(self, path, extra):
        payload = dict(extra)
        payload["missing"] = self.missing
        payload["spans"] = [dict(zip(("id", "name", "start", "end", "parent", "rep"), s))
                            for s in self.spans]
        payload["counts"] = {str(rep): dict(c) for rep, c in self.counts.items()}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def _label(owner):
    return getattr(owner, "__name__", type(owner).__name__).rsplit(".", 1)[-1]


def install(tracer, pkg):
    """Wrap every layer boundary the per-layer metrics need.

    ``pkg`` holds the imported modules: dockcli, adp, riccati, regulator
    and sysmodels.
    """
    dockcli, adp, riccati, regulator, sysmodels = (
        pkg.dockcli, pkg.adp, pkg.riccati, pkg.regulator, pkg.sysmodels)

    def time_controller(args, kwargs):
        # simulate(model, exo, controller, x0, t_span, dt)
        if "controller" in kwargs:
            kwargs = dict(kwargs, controller=tracer.timed_callback(
                "sysmodels.simulate.controller_s", kwargs["controller"]))
        else:
            args = args[:2] + (tracer.timed_callback(
                "sysmodels.simulate.controller_s", args[2]),) + args[3:]
        return args, kwargs

    def simulate_steps(log, args, kwargs):
        tracer.count("sysmodels.simulate.steps", len(log) - 1)

    def assemble_counts(bundles, args, kwargs):
        # assemble_regression(log, basis, R, interval): integrated samples per offset
        log = args[0]
        interval = args[3] if len(args) > 3 else kwargs["interval"]
        steps = int(round(interval / log.dt))
        tracer.count("adp.assemble.offsets", len(bundles))
        tracer.count("adp.assemble.fine_samples", (len(log) - 1) // steps * steps)

    def vi_counts(result, args, kwargs):
        history = result[2]
        tracer.count("adp.vi_learn.iterations", history.iterations)
        tracer.count("adp.vi_learn.resets", history.resets)
        # iterations after the last reset are the ones that reached the answer
        tracer.count("adp.vi_learn.useful_iterations",
                     int((history.reset_count == history.resets).sum()))

    def csv_bytes(result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("io.bytes_written", os.path.getsize(path))

    tracer.wrap("dockcli.run_experiment", dockcli, "run_experiment")
    tracer.wrap("sysmodels.check_assumptions", dockcli, "check_assumptions")
    tracer.wrap("sysmodels.simulate.evaluate", dockcli, "simulate",
                after=simulate_steps, before=time_controller)
    tracer.wrap("sysmodels.simulate.collect", adp, "simulate",
                after=simulate_steps, before=time_controller)
    tracer.wrap("adp.collect_data", adp, "collect_data")
    tracer.wrap("adp.assemble_regression", adp, "assemble_regression", after=assemble_counts)
    tracer.wrap("adp.check_rank", adp, "check_rank")
    tracer.wrap("adp.vi_learn", adp, "vi_learn", after=vi_counts)
    tracer.wrap("adp.recover_model_artifacts", adp, "recover_model_artifacts")
    tracer.wrap("adp.solve_problem1_datadriven", adp, "solve_problem1_datadriven")
    tracer.wrap("adp.save_gains", adp, "save_gains")
    tracer.wrap("matops.lstsq", adp, "lstsq")
    tracer.counter("matops.vecs.calls", adp, "vecs")
    tracer.counter("matops.unvecs.calls", adp, "unvecs")
    tracer.wrap("regulator.kernel_basis", regulator, "kernel_basis")
    tracer.wrap("regulator.feedforward_gain", regulator, "feedforward_gain")
    tracer.wrap("regulator.solve_regulator_exact", regulator, "solve_regulator_exact")
    tracer.wrap("riccati.model_based_vi", riccati, "model_based_vi",
                after=lambda r, a, k: tracer.count("riccati.model_based_vi.iterations",
                                                   r[2].iterations))
    tracer.wrap("riccati.kleinman_pi", riccati, "kleinman_pi",
                after=lambda r, a, k: tracer.count("riccati.kleinman_pi.iterations", len(r[2])))
    tracer.wrap("io.write_csv", sysmodels.TrajectoryLog, "to_csv", after=csv_bytes)
    tracer.wrap("io.write_csv", riccati.ViHistory, "to_csv", after=csv_bytes)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


# metric -> (wrapped targets it needs, fn(span time totals by name, counts)); the
# counts include "span_calls:<span>" and "self:<span>" (span minus its children)
LAYER_METRICS = {
    "sysmodels.simulate.collect_s": (["adp.simulate"], lambda t, c: t["sysmodels.simulate.collect"]),
    "sysmodels.simulate.evaluate_s": (["dockcli.simulate"], lambda t, c: t["sysmodels.simulate.evaluate"]),
    "sysmodels.simulate.steps": (["adp.simulate", "dockcli.simulate"],
                                 lambda t, c: c["sysmodels.simulate.steps"]),
    "sysmodels.simulate.us_per_step": (
        ["adp.simulate", "dockcli.simulate"],
        lambda t, c: _ratio(t["sysmodels.simulate.collect"] + t["sysmodels.simulate.evaluate"],
                            c["sysmodels.simulate.steps"], 1e6)),
    "sysmodels.simulate.controller_s": (["adp.simulate", "dockcli.simulate"],
                                        lambda t, c: c["sysmodels.simulate.controller_s"]),
    "sysmodels.check_assumptions_s": (["dockcli.check_assumptions"],
                                      lambda t, c: t["sysmodels.check_assumptions"]),
    "adp.assemble_regression_s": (["adp.assemble_regression"],
                                  lambda t, c: t["adp.assemble_regression"]),
    "adp.assemble.offsets": (["adp.assemble_regression"], lambda t, c: c["adp.assemble.offsets"]),
    "adp.assemble.fine_samples": (["adp.assemble_regression"],
                                  lambda t, c: c["adp.assemble.fine_samples"]),
    "adp.assemble.ns_per_sample_offset": (
        ["adp.assemble_regression"],
        lambda t, c: _ratio(t["adp.assemble_regression"],
                            c["adp.assemble.offsets"] * c["adp.assemble.fine_samples"], 1e9)),
    "adp.vi_learn_s": (["adp.vi_learn"], lambda t, c: t["adp.vi_learn"]),
    "adp.vi_learn.iterations": (["adp.vi_learn"], lambda t, c: c["adp.vi_learn.iterations"]),
    "adp.vi_learn.resets": (["adp.vi_learn"], lambda t, c: c["adp.vi_learn.resets"]),
    "adp.vi_learn.us_per_iter": (["adp.vi_learn"],
                                 lambda t, c: _ratio(t["adp.vi_learn"],
                                                     c["adp.vi_learn.iterations"], 1e6)),
    "adp.vi_learn.useful_frac": (["adp.vi_learn"],
                                 lambda t, c: _ratio(c["adp.vi_learn.useful_iterations"],
                                                     c["adp.vi_learn.iterations"])),
    "adp.check_rank_s": (["adp.check_rank"], lambda t, c: t["adp.check_rank"]),
    "adp.recover_model_artifacts_s": (["adp.recover_model_artifacts"],
                                      lambda t, c: t["adp.recover_model_artifacts"]),
    "adp.solve_problem1_datadriven_s": (["adp.solve_problem1_datadriven"],
                                        lambda t, c: t["adp.solve_problem1_datadriven"]),
    "matops.vecs.calls": (["adp.vecs"], lambda t, c: c["matops.vecs.calls"]),
    "matops.unvecs.calls": (["adp.unvecs"], lambda t, c: c["matops.unvecs.calls"]),
    "matops.lstsq.calls": (["adp.lstsq"], lambda t, c: c["span_calls:matops.lstsq"]),
    "matops.lstsq_s": (["adp.lstsq"], lambda t, c: t["matops.lstsq"]),
    "riccati.model_based_vi_s": (["riccati.model_based_vi"], lambda t, c: t["riccati.model_based_vi"]),
    "riccati.model_based_vi.iterations": (["riccati.model_based_vi"],
                                          lambda t, c: c["riccati.model_based_vi.iterations"]),
    "riccati.kleinman_pi_s": (["riccati.kleinman_pi"], lambda t, c: t["riccati.kleinman_pi"]),
    "riccati.kleinman_pi.iterations": (["riccati.kleinman_pi"],
                                       lambda t, c: c["riccati.kleinman_pi.iterations"]),
    "regulator.kernel_basis_s": (["regulator.kernel_basis"], lambda t, c: t["regulator.kernel_basis"]),
    "regulator.solve_regulator_exact_s": (["regulator.solve_regulator_exact"],
                                          lambda t, c: t["regulator.solve_regulator_exact"]),
    "io.write_csv_s": (["TrajectoryLog.to_csv", "ViHistory.to_csv"], lambda t, c: t["io.write_csv"]),
    "io.bytes_written": (["TrajectoryLog.to_csv", "ViHistory.to_csv"],
                         lambda t, c: c["io.bytes_written"]),
    "dockcli.run_experiment.self_s": (["dockcli.run_experiment"],
                                      lambda t, c: c["self:dockcli.run_experiment"]),
}


def rep_metrics(tracer, rep):
    """Per-layer metrics of one traced repetition, skipping missing targets."""
    spans = tracer.rep_spans(rep)
    totals = defaultdict(float)
    counts = defaultdict(float, tracer.counts.get(rep, {}))
    child_time = defaultdict(float)
    for _, name, start, end, parent, _ in spans:
        totals[name] += end - start
        counts["span_calls:" + name] += 1
        if parent is not None:
            child_time[parent] += end - start
    for sid, name, start, end, _, _ in spans:
        counts["self:" + name] += (end - start) - child_time[sid]
    missing = set(tracer.missing)
    return {name: float(fn(totals, counts))
            for name, (needs, fn) in LAYER_METRICS.items()
            if not missing.intersection(needs)}


def median_metrics(per_rep):
    """Median of each metric over repetitions (all reps report the same keys)."""
    if not per_rep:
        return {}
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
