"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install` replaces the module attributes the package calls through
with thin wrappers and `Tracer.uninstall` puts the originals back. Each span
records its name, layer, start, end, parent and thread. Spans stay in memory
until `write` saves them at the end of a run.

A span's self time is its duration minus the part of it that its child
spans cover. Spans opened by a worker thread that has no open span of its
own take the innermost open span of the installing thread as parent, so the
replicates `simlab.power_study` hands to its executor nest under it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import threading
import time
from collections import defaultdict


def _observe_eval(counts, args, kwargs, out):
    s = args[1]  # the package passes evaluation points positionally
    counts["basis.points"] += s.size if hasattr(s, "size") else len(s)
    arrays = out if isinstance(out, list) else [out]
    counts["basis.out_bytes"] += sum(a.nbytes for a in arrays)


def _observe_fit(counts, args, kwargs, out):
    counts["model.restarts"] += out.n_restarts_used
    counts["model.unconverged"] += int(not out.converged)


def _observe_power(counts, args, kwargs, out):
    counts["simlab.replicate_failures"] += sum(len(row.failures) for row in out.rows)


# (module, attribute, layer, observer). The span name is "<attribute>@<module>":
# the module is where the call is bound, which tells penalty quadrature
# (basis_matrix@basis) apart from link evaluation.
TARGETS = (
    ("basis", "basis_matrix", "basis", None),
    ("model", "basis_matrices", "basis", _observe_eval),
    ("inference", "basis_matrices", "basis", _observe_eval),
    ("jensen", "basis_matrix", "basis", _observe_eval),
    ("model", "fit_path", "model", None),
    ("simlab", "fit_path", "model", None),
    ("model", "fit", "model", _observe_fit),
    ("model", "minimize", "model", None),
    ("inference", "build_path", "inference", None),
    ("inference", "gcv", "inference", None),
    ("jensen", "coef_cov", "inference", None),
    ("jensen", "jensen_test", "jensen", None),
    ("simlab", "jensen_test", "jensen", None),
    ("jensen", "alternative_null_test", "jensen", None),
    ("simlab", "alternative_null_test", "jensen", None),
    ("jensen", "delta_cov", "jensen", None),
    ("jensen", "make_eval_set", "jensen", None),
    ("jensen", "null_critical_value", "jensen", None),
    ("jensen", "linear_logistic_reference", "jensen", None),
    ("simlab", "linear_logistic_reference", "jensen", None),
    ("simlab", "power_study", "simlab", _observe_power),
    ("simlab", "true_delta", "simlab", None),
)

LAYERS = ("basis", "model", "inference", "jensen", "simlab")
EVAL_SPANS = ("basis_matrices@model", "basis_matrices@inference", "basis_matrix@jensen")


class Tracer:
    """In-memory span recorder. Not reentrant: one install at a time."""

    def __init__(self):
        self.spans = {}  # id -> [name, layer, parent, start, end, thread]
        self.counts = defaultdict(int)
        self.cpu = defaultdict(float)  # span name -> process CPU seconds inside it
        self._ids = itertools.count()
        self._stacks = defaultdict(list)
        self.home = None
        self._saved = []
        self._lock = threading.Lock()  # observers run on worker threads too

    # --- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self.home)
            parent = home[-1] if home and tid != self.home else None
        sid = next(self._ids)
        self.spans[sid] = [name, layer, parent, time.perf_counter(), None, tid]
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        rec = self.spans[sid]
        rec[4] = time.perf_counter()
        self._stacks[rec[5]].pop()

    def _wrap(self, fn, name, layer, observe):
        tracer = self
        with_cpu = name == "power_study@simlab"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu0 = process_cpu() if with_cpu else 0.0
            sid = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                if with_cpu:
                    tracer.cpu[name] += process_cpu() - cpu0
            if observe is not None:
                with tracer._lock:
                    observe(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self, package_modules: dict) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.home = threading.get_ident()
        for mod_name, attr, layer, observe in TARGETS:
            mod = package_modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, f"{attr}@{mod_name}", layer, observe))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # --- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per line: id, name, layer, parent, start, end, thread."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid in sorted(self.spans):
                name, layer, parent, t0, t1, tid = self.spans[sid]
                fh.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "parent": parent,
                    "start": t0, "end": t1, "thread": tid,
                }) + "\n")


def process_cpu() -> float:
    """CPU seconds of this process (all threads) and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: dict) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, (_, _, parent, t0, t1, _) in spans.items():
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (rec[4] - rec[3]) - _union_length(children.get(sid, ()))
        for sid, rec in spans.items()
    }


def unnested(spans: dict) -> int:
    """Spans the self-time accounting would miscount: a layer span with no
    parent, or a span that starts before or ends after its parent."""
    bad = 0
    for name, layer, parent, t0, t1, tid in spans.values():
        if parent is None:
            bad += layer != "bench"
        else:
            p0, p1 = spans[parent][3], spans[parent][4]
            bad += not (p0 <= t0 and t1 <= p1)
    return bad


def parallel_excess(spans: dict, home: int) -> float:
    """Seconds counted twice because two or more worker threads had a span
    open at once: the integral of max(0, busy workers - 1) over time."""
    busy = defaultdict(list)
    for name, layer, parent, t0, t1, tid in spans.values():
        if tid != home:
            busy[tid].append((t0, t1))
    events = []
    for intervals in busy.values():
        merged = []
        for a, b in sorted(intervals):
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        for a, b in merged:
            events += [(a, 1), (b, -1)]
    events.sort()
    excess, level, last = 0.0, 0, None
    for t, step in events:
        if last is not None and level > 1:
            excess += (level - 1) * (t - last)
        level += step
        last = t
    return excess


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float, units: int) -> dict:
    """Per-layer counts and times, self times, and the accounting of the
    traced wall time. Spans of layer "bench" are the harness's own unit
    spans; their self time and the gaps between them are unattributed.

    trace.accounted_frac is 1 by construction when every span nests inside
    its parent, since self times of a nested tree sum to its roots'
    durations; trace.unnested_spans is the check that can fail."""
    spans = tracer.spans
    own = self_times(spans)
    counts = tracer.counts
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    bench_total = 0.0
    for sid, (name, layer, _, t0, t1, _) in spans.items():
        calls[name] += 1
        inclusive[name] += t1 - t0
        self_by_name[name] += own[sid]
        if layer == "bench":
            bench_total += t1 - t0
        self_by_layer[layer] += own[sid]
    unattributed = self_by_layer["bench"] + (wall - bench_total)
    excess = parallel_excess(spans, tracer.home)

    def total(field, names):
        return sum(field[n] for n in names)

    fits = calls["fit@model"]

    def per_fit(count):
        return count / fits if fits else 0.0

    power_wall = inclusive["power_study@simlab"]
    m = {
        "basis.eval_calls": (total(calls, EVAL_SPANS), "count"),
        "basis.eval_s": (total(inclusive, EVAL_SPANS), "s"),
        "basis.points": (counts["basis.points"], "count"),
        "basis.out_mb": (counts["basis.out_bytes"] / 1e6, "MB-computed"),
        "basis.penalty_s": (inclusive["basis_matrix@basis"], "s"),
        "model.fits": (fits, "count"),
        "model.fit_self_s": (self_by_name["fit@model"] + self_by_name["minimize@model"], "s"),
        "model.minimize_calls": (calls["minimize@model"], "count"),
        "model.basis_calls_per_fit": (per_fit(calls["basis_matrices@model"]), "calls/fit"),
        "model.restarts_per_fit": (per_fit(counts["model.restarts"]), "restarts/fit"),
        "model.unconverged": (counts["model.unconverged"], "count"),
        "inference.build_path_s": (inclusive["build_path@inference"], "s"),
        "inference.gcv_calls": (calls["gcv@inference"], "count"),
        "inference.coef_cov_calls": (calls["coef_cov@jensen"], "count"),
        "inference.coef_cov_s": (inclusive["coef_cov@jensen"], "s"),
        "jensen.delta_cov_s": (inclusive["delta_cov@jensen"], "s"),
        "jensen.eval_set_s": (inclusive["make_eval_set@jensen"], "s"),
        "jensen.null_sim_s": (inclusive["null_critical_value@jensen"], "s"),
        "jensen.reference_s": (
            total(inclusive, [
                "linear_logistic_reference@jensen", "linear_logistic_reference@simlab",
            ]),
            "s",
        ),
        "jensen.test_s": (
            total(inclusive, [
                "jensen_test@jensen", "jensen_test@simlab",
                "alternative_null_test@jensen", "alternative_null_test@simlab",
            ]),
            "s",
        ),
        "simlab.power_s": (power_wall, "s"),
        "simlab.cpu_per_wall": (
            tracer.cpu["power_study@simlab"] / power_wall if power_wall else 0.0, "s/s"
        ),
        "simlab.true_delta_s": (inclusive["true_delta@simlab"], "s"),
        "simlab.replicate_failures": (counts["simlab.replicate_failures"], "count"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (self_by_layer[layer], "s")
    m["self.unattributed_s"] = (unattributed, "s")
    layer_sum = sum(self_by_layer[layer] for layer in LAYERS)
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.parallel_excess_s"] = (excess, "s")
    m["trace.accounted_frac"] = ((layer_sum + unattributed - excess) / wall, "ratio")
    m["trace.unnested_spans"] = (unnested(spans), "count")
    m["trace.units"] = (units, "count")
    m["trace.spans"] = (len(spans), "count")
    return m
