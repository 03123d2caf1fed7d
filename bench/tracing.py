"""Spans around rfunc's public functions, recorded from outside the package.

``Tracer`` wraps every function named in the ``__all__`` of ``rfunc.core``,
``rfunc.analysis`` and ``rfunc.quantum``, and ``rfunc.cli.main``, wherever
rfunc's own modules and the package namespace bind it, so calls between
layers are seen too.  The function list is read from ``__all__`` at run
time.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("core", "analysis", "quantum", "cli")


def _size(args):
    """An array argument's element count, an integer argument's value, else 1."""
    if not args:
        return 0
    a = args[0]
    if type(a) is int:
        return a
    return getattr(a, "size", 1)


class Tracer:
    def __init__(self, rfunc, max_spans):
        self.max_spans = max_spans
        self.names, self.layer_of = [], []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.size = array("q")
        self.extra = array("q")   # InflectionResult.iterations, else -1
        self.stack = [-1]
        self.bindings = []        # (namespace, attribute, original, wrapper)
        targets = {}
        for layer in LAYERS[:3]:
            mod = getattr(rfunc, layer)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    targets[id(fn)] = (fn, layer, name)
        targets[id(rfunc.cli.main)] = (rfunc.cli.main, "cli", "main")
        wrappers = {}
        for key, (fn, layer, name) in targets.items():
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
            wrappers[key] = self._wrap(fn, len(self.names) - 1)
        for ns in (rfunc, rfunc.core, rfunc.analysis, rfunc.quantum, rfunc.cli):
            for attr, value in vars(ns).items():
                if id(value) in wrappers and targets[id(value)][0] is value:
                    self.bindings.append((ns, attr, value, wrappers[id(value)]))

    def _wrap(self, fn, nid):
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        size, extra, stack = self.size, self.extra, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            size.append(_size(args))
            extra.append(-1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                extra[idx] = iterations
            return result

        return traced

    def on(self):
        for ns, attr, _, wrapper in self.bindings:
            setattr(ns, attr, wrapper)

    def off(self):
        for ns, attr, original, _ in self.bindings:
            setattr(ns, attr, original)

    def full(self):
        return len(self.start) >= self.max_spans

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,layer,start_ns,end_ns,parent,size,extra\n")
            for i in range(len(self.start)):
                nid = self.name_id[i]
                fh.write(f"{i},{self.names[nid]},{LAYERS[self.layer_of[nid]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.size[i]},{self.extra[i]}\n")

    # ------------------------------------------------------------------

    def metrics(self, batches, ops_per_batch, untraced_ms, bytes_per_batch=0):
        """Per-layer metrics from the spans of the traced batches.

        ``batches`` holds (start_ns, end_ns) of each traced batch and
        ``untraced_ms`` the untraced batch times of the same run.
        """
        spans = Spans(self, batches)
        out = {}
        shares = 0.0
        for layer_idx, layer in enumerate(LAYERS):
            sel = spans.layer == layer_idx
            out[f"{layer}.calls"] = (spans.per_batch(sel), "count")
            out[f"{layer}.self_ms"] = (spans.per_batch(sel, spans.exclusive) / 1e6, "ms")
            share = 100.0 * spans.exclusive[sel].sum() / spans.total_ns
            out[f"{layer}.share_pct"] = (share, "%")
            shares += share
        # The rest of a traced batch is the benchmark's own loop around the calls.
        out["bench.share_pct"] = (100.0 - shares, "%")
        out["bench.batch_ms"] = (spans.batch_ms, "ms")
        base = float(np.median(untraced_ms))
        out["trace.overhead_pct"] = (100.0 * (spans.batch_ms - base) / base, "%")

        # core
        core = spans.layer == LAYERS.index("core")
        entry = core & (spans.parent_layer != LAYERS.index("core"))
        out["core.scalar_call_us"] = (spans.median_ms(entry & (spans.size <= 1)) * 1e3, "us")
        tangent_root = spans.root_is("find_tangent")
        ops = ops_per_batch - spans.per_batch(spans.named("find_tangent") & spans.top)
        checks = spans.per_batch(spans.named("check_lambda") & ~tangent_root)
        out["core.check_lambda_calls"] = (checks / ops, "count")
        grid = (entry & (spans.size >= 1000) & spans.root_is("certify_proof")
                & spans.named("r_second", "r_value", "g_value"))
        points = spans.size[grid].sum()
        out["core.grid_ns_per_point"] = (
            float(spans.dur[grid].sum() / points) if points else 0.0, "ns")

        # analysis
        cert = spans.named("certify_proof")
        out["analysis.certify_proof_ms.m_lt_5"] = (spans.median_ms(cert & (spans.size < 5)), "ms")
        out["analysis.certify_proof_ms.m_ge_5"] = (spans.median_ms(cert & (spans.size >= 5)), "ms")
        infl = spans.named("find_inflection")
        out["analysis.find_inflection_ms"] = (spans.median_ms(infl), "ms")
        its = spans.extra[infl & (spans.extra >= 0)]
        out["analysis.bisection_iterations"] = (float(np.median(its)) if its.size else 0.0,
                                                "count")
        tangent = spans.named("find_tangent")
        out["analysis.find_tangent_calls"] = (spans.per_batch(tangent), "count")
        out["analysis.find_tangent_cold_ms"] = (spans.median_ms(tangent), "ms")
        out["analysis.find_tangent_share_pct"] = (
            100.0 * spans.dur[tangent & spans.top].sum() / spans.total_ns, "%")

        # quantum
        load = spans.named("load_state")
        out["quantum.load_state_calls"] = (spans.per_batch(load), "count")
        # parsing only: load_state's own time, without its validate_state call
        load_ms = spans.per_batch(load, spans.exclusive) / 1e6
        out["quantum.load_state_ms"] = (load_ms, "ms")
        mb_per_s = bytes_per_batch / 1e3 / load_ms if load_ms else 0.0
        out["quantum.load_state_mb_per_s"] = (mb_per_s, "MB/s")
        out["quantum.validate_state_ms"] = (
            spans.per_batch(spans.named("validate_state"), spans.dur) / 1e6, "ms")
        norm = spans.named("trace_norm")
        prev = np.concatenate(([-1], spans.name_id[:-1]))
        after = {"ppt": spans.name_index("partial_transpose"),
                 "ccnr": spans.name_index("realign")}
        prev_dur = np.concatenate(([0], spans.dur[:-1]))
        for label, pid in after.items():
            sel = norm & (prev == pid)
            for bucket, lo, hi in (("mn_le_16", 0, 16 ** 2), ("mn_le_144", 16 ** 2, 144 ** 2),
                                   ("mn_gt_144", 144 ** 2, np.inf)):
                part = sel & (spans.size > lo) & (spans.size <= hi)
                ms = (spans.dur[part] + prev_dur[part]) / 1e6
                out[f"quantum.{label}_norm_ms.{bucket}"] = (
                    float(np.median(ms)) if ms.size else 0.0, "ms")

        # cli
        out["cli.main_ms"] = (spans.median_ms(spans.named("main")), "ms")
        return out


class Spans:
    """The recorded spans as arrays, limited to the traced batches."""

    def __init__(self, tracer, batches):
        n = len(tracer.start)
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.uint16, count=n).astype(np.int64)
        start = np.frombuffer(tracer.start, dtype=np.int64, count=n)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64, count=n) - start
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64, count=n)
        self.size = np.frombuffer(tracer.size, dtype=np.int64, count=n)
        self.extra = np.frombuffer(tracer.extra, dtype=np.int64, count=n)
        self.layer = np.asarray(tracer.layer_of, dtype=np.int64)[self.name_id]
        has_parent = self.parent >= 0
        self.parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], -1)
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.exclusive = self.dur - child
        self.top = ~has_parent
        root = np.where(has_parent, self.parent, np.arange(n))
        while True:
            nxt = np.where(self.parent[root] >= 0, self.parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root
        starts = np.array([b[0] for b in batches], dtype=np.int64)
        self.batch = np.searchsorted(starts, start, side="right") - 1
        self.n_batches = len(batches)
        self.batch_ms = float(np.median([(b[1] - b[0]) / 1e6 for b in batches]))
        self.total_ns = float(sum(b[1] - b[0] for b in batches))

    def name_index(self, name):
        return self.names.index(name) if name in self.names else -2

    def named(self, *names):
        ids = [self.name_index(n) for n in names]
        return np.isin(self.name_id, ids)

    def root_is(self, name):
        return self.name_id[self.root] == self.name_index(name)

    def per_batch(self, sel, weights=None):
        """Median over traced batches of the count (or weighted sum) of selected spans."""
        w = None if weights is None else weights[sel]
        totals = np.bincount(self.batch[sel], weights=w, minlength=self.n_batches)
        return float(np.median(totals[: self.n_batches]))

    def median_ms(self, sel):
        return float(np.median(self.dur[sel])) / 1e6 if sel.any() else 0.0
