"""Span recording for the traced benchmark run, and its reduction to per-layer metrics.

The untraced run calls every program function directly: ``Tracer(False)``
hands each function back untouched and installs nothing. The traced run
calls the same functions through ``Tracer.wrap``, which records one span
per call: name, parent span, start, end and an optional amount (FLOPs for
``matmul``, tape ops for ``Tape.backward``). Spans stay in memory and are
reduced to metrics once the run ends.

Span names are ``<layer>.<operation>``; the layer is the ``pcil`` module
the call goes into. Every span of one loop iteration descends from that
iteration's ``iteration`` span.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import defaultdict

import numpy as np

from pcil import autodiff, contrastive, divergence

_clock = time.perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # one (name, parent index, start, end, amount) tuple per span, in start order
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.missing: set[str] = set()  # spans whose target the program no longer has
        self.gc_s = 0.0
        self._gc_start = None

    def wrap(self, name: str, fn, amount=None):
        """``fn`` itself when disabled, else ``fn`` recording a span per call.

        ``amount(args, result)`` runs after the span has closed.
        """
        if not self.enabled:
            return fn
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name,))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, 0.0)
            if amount is not None:
                spans[idx] = (name, parent, t0, t1, float(amount(args, out)))
            return out

        return traced

    def patch(self, owner, attr: str, name: str, amount=None) -> None:
        """Route ``owner.attr`` through a span until ``restore``.

        A target that no longer exists is skipped, and the metrics built on
        its span are reported absent.
        """
        if not self.enabled:
            return
        if owner is None or not hasattr(owner, attr):
            self.missing.add(name)
            return
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, amount))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def watch_gc(self):
        """Add the wall time of cyclic-GC passes inside iterations to ``gc_s``."""
        if not self.enabled:
            yield
            return
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        # only passes that start inside an iteration count
        if phase == "start":
            stack = self._stack
            inside = stack and self.spans[stack[0]][0] == "iteration"
            self._gc_start = _clock() if inside else None
        elif self._gc_start is not None:
            self.gc_s += _clock() - self._gc_start
            self._gc_start = None


def install_library_spans(tracer: Tracer) -> None:
    """Spans around the module-level functions the benchmark's calls reach."""

    def matmul_flops(args, out):
        return 2.0 * out.data.size * args[0].shape[1]

    tracer.patch(contrastive, "contrastive_loss_graph", "contrastive.infonce")
    tracer.patch(contrastive, "penalty_graph", "contrastive.penalty")
    tracer.patch(getattr(contrastive, "Encoder", None), "embed_graph", "contrastive.embed_graph")
    tracer.patch(getattr(autodiff, "Tape", None), "backward", "autodiff.backward",
                 amount=lambda args, out: args[0].num_ops)
    tracer.patch(autodiff, "adam_step", "autodiff.adam_step")
    tracer.patch(autodiff, "matmul", "autodiff.matmul", amount=matmul_flops)
    tracer.patch(divergence, "d_cont_estimate", "divergence.d_cont_estimate")
    tracer.patch(divergence, "tv_distance", "divergence.tv_distance")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Per-name span statistics of one traced run."""

    def __init__(self, tracer: Tracer):
        self.missing = tracer.missing
        self.loop = defaultdict(list)  # name -> durations of spans inside an iteration
        self.outside = defaultdict(list)  # name -> durations of spans outside every iteration
        self.layer_busy = defaultdict(float)  # layer -> inclusive time of its outermost loop spans
        self.per_update = defaultdict(float)  # name -> calls under an encoder_update
        self.amount_per_update = defaultdict(float)  # name -> summed amount under an encoder_update
        self.updates = 0
        root: list[int] = []
        update: list[int] = []
        for i, (name, parent, t0, t1, amount) in enumerate(tracer.spans):
            root.append(root[parent] if parent >= 0 else i)
            in_update = update[parent] if parent >= 0 else -1
            update.append(i if name == "contrastive.encoder_update" else in_update)
            if tracer.spans[root[i]][0] != "iteration":
                self.outside[name].append(t1 - t0)
                continue
            self.loop[name].append(t1 - t0)
            if name == "contrastive.encoder_update":
                self.updates += 1
            elif in_update >= 0:
                self.per_update[name] += 1
                self.amount_per_update[name] += amount
            layer = _layer(name)
            if parent < 0 or _layer(tracer.spans[parent][0]) != layer:
                self.layer_busy[layer] += t1 - t0

    def quantile(self, name: str, q: float, scale: float):
        """Quantile of the loop durations of ``name`` times ``scale``; 0 when never called."""
        if name in self.missing:
            return None
        values = self.loop.get(name)
        return float(np.quantile(values, q)) * scale if values else 0.0

    def count(self, name: str):
        return len(self.loop.get(name, ())) if name not in self.missing else None

    def total(self, name: str):
        return float(sum(self.loop.get(name, ()))) if name not in self.missing else None

    def once(self, name: str, scale: float):
        """Duration of a set-up or final span; 0 when never called."""
        if name in self.missing:
            return None
        values = self.outside.get(name)
        return values[-1] * scale if values else 0.0

    def mean_per_update(self, name: str, of_amount: bool = False):
        if name in self.missing:
            return None
        if not self.updates:
            return 0.0
        table = self.amount_per_update if of_amount else self.per_update
        return table.get(name, 0.0) / self.updates


def layer_metrics(tracer: Tracer, loop_s: float, counters: dict) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    A layer a workload never calls reads 0. A metric whose span target no
    longer exists in the program is left out.
    """
    t = SpanTable(tracer)
    ms, us = 1e3, 1e6

    def share(seconds):
        return None if seconds is None else seconds / loop_s

    out = {
        "envs.step_us_p50": (t.quantile("envs.step", 0.5, us), "us"),
        "envs.policy_us_p50": (t.quantile("envs.policy", 0.5, us), "us"),
        "envs.step_calls": (t.count("envs.step"), "count"),
        "envs.busy_share": (share(t.layer_busy["envs"]), "ratio"),
        "replay.push_us_p50": (t.quantile("replay.push", 0.5, us), "us"),
        "replay.sample_nstep_ms_p50": (t.quantile("replay.sample_nstep", 0.5, ms), "ms"),
        "replay.sample_nstep_ms_p90": (t.quantile("replay.sample_nstep", 0.9, ms), "ms"),
        "replay.nstep_rewards_us_p50": (t.quantile("replay.nstep_rewards", 0.5, us), "us"),
        "replay.busy_share": (share(t.layer_busy["replay"]), "ratio"),
        "replay.window_fill": (counters["window_fill"], "ratio"),
        "replay.save_demos_ms": (t.once("replay.save_demos", ms), "ms"),
        "replay.load_demos_ms": (t.once("replay.load_demos", ms), "ms"),
        "contrastive.encoder_update_ms_p50": (t.quantile("contrastive.encoder_update", 0.5, ms), "ms"),
        "contrastive.encoder_update_ms_p90": (t.quantile("contrastive.encoder_update", 0.9, ms), "ms"),
        "contrastive.infonce_ms_p50": (t.quantile("contrastive.infonce", 0.5, ms), "ms"),
        "contrastive.penalty_ms_p50": (t.quantile("contrastive.penalty", 0.5, ms), "ms"),
        "contrastive.embed_graph_calls_per_update": (t.mean_per_update("contrastive.embed_graph"), "count"),
        "contrastive.similarity_reward_ms_p50": (t.quantile("contrastive.similarity_reward", 0.5, ms), "ms"),
        "contrastive.reference_ms_p50": (t.quantile("contrastive.reference", 0.5, ms), "ms"),
        "contrastive.busy_share": (share(t.layer_busy["contrastive"]), "ratio"),
        "contrastive.norm_violations": (counters["norm_violations"], "count"),
        "contrastive.max_norm_error": (counters["max_norm_error"], "norm"),
        "contrastive.infonce_final": (counters["infonce_final"], "nats"),
        "contrastive.penalty_final": (counters["penalty_final"], "sq_grad_norm"),
        "autodiff.tape_ops_per_update": (
            t.mean_per_update("autodiff.backward", of_amount=True), "count"),
        "autodiff.matmul_calls_per_update": (t.mean_per_update("autodiff.matmul"), "count"),
        "autodiff.matmul_gflop_per_update": (
            _scaled(t.mean_per_update("autodiff.matmul", of_amount=True), 1e-9), "GFLOP_computed"),
        "autodiff.backward_ms_p50": (t.quantile("autodiff.backward", 0.5, ms), "ms"),
        "autodiff.adam_step_ms_p50": (t.quantile("autodiff.adam_step", 0.5, ms), "ms"),
        "autodiff.adam_skipped": (counters["adam_skipped"], "count"),
        "autodiff.gc_pause_share": (tracer.gc_s / loop_s, "ratio"),
        "divergence.sandwich_small_ms_p50": (t.quantile("divergence.sandwich_small", 0.5, ms), "ms"),
        "divergence.sandwich_large_ms_p50": (t.quantile("divergence.sandwich_large", 0.5, ms), "ms"),
        "divergence.d_cont_estimate_ms_p50": (t.quantile("divergence.d_cont_estimate", 0.5, ms), "ms"),
        "divergence.tv_distance_us_p50": (t.quantile("divergence.tv_distance", 0.5, us), "us"),
        "checkpoint.save_ms_p50": (t.quantile("checkpoint.save", 0.5, ms), "ms"),
        "checkpoint.stall_share": (share(t.total("checkpoint.save")), "ratio"),
        "checkpoint.load_ms": (t.once("checkpoint.load", ms), "ms"),
        "checkpoint.bytes": (counters["checkpoint_bytes"], "bytes"),
    }
    return {name: pair for name, pair in out.items() if pair[0] is not None}


def _scaled(value, factor):
    return None if value is None else value * factor
