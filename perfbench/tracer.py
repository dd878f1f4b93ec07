"""Span tracer for cfchain, installed from outside the package.

`Tracer.installed()` replaces each name in `TARGETS` with a timing wrapper in
the module that calls it (for example `cfchain.harness.build_chain_plan`, not
`cfchain.chain.build_chain_plan`), so every call is timed exactly once and no
file of the package changes. The originals are restored on exit.

A span is `[name, start, end, parent]`; spans stay in memory until the pass
ends. A name's self time is its spans' durations minus the time covered by
their direct children. Calls are single-threaded here (traced passes run at
one worker), so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# (cfchain module, attribute, span name). Each layer is named after the
# module that implements it; the attribute is wrapped where it is looked up.
TARGETS = (
    ("harness", "_placement_worker", "harness.task"),
    ("harness", "_run_noise_stats", "harness.task"),
    ("harness", "_aggregate_sweep", "harness.aggregate"),
    ("harness", "seed_stream", "harness.seed_stream"),
    ("harness", "generate_placement", "geometry.placement"),
    ("harness", "draw_channel", "geometry.channel"),
    ("harness", "crandn", "geometry.crandn"),
    ("geometry", "crandn", "geometry.crandn"),
    ("harness", "build_chain_plan", "chain.plan"),
    ("chain", "pca_basis", "chain.pca_basis"),
    ("chain", "calibrate_dynamic_range", "quantizer.calibrate"),
    ("harness", "apply_chain_collect", "chain.collect"),
    ("kernels", "apply_chain", "kernels.apply"),
    ("harness", "validate_noise_statistics", "quantizer.validate"),
)

# Real floating-point operations of one mid-rise quantization of one real
# value: add gamma, divide, floor, add 1/2, multiply, add, clamp low, clamp
# high.
QUANT_FLOPS_PER_REAL = 8


def kernel_flops_per_ap_sample(N: int, K: int, r: int, mode: int,
                               quantized: bool) -> int:
    """Computed (not counted) flops of `apply_chain` for one AP and sample.

    A complex multiply-add is 8 real flops and a complex add 2, following
    the arithmetic of `kernels.apply_chain_numpy`.
    """
    flops = 8 * N * K                    # pred = H_l s_hat
    if mode <= 1:
        flops += 2 * N + 8 * r * N       # A^H (y - pred)
    elif mode == 2:
        flops += 16 * r * N              # A^H y and A^H pred
    if quantized:
        flops += 2 * r + 2 * r * QUANT_FLOPS_PER_REAL  # dither, quantize
    if mode >= 2:
        flops += 2 * r                   # subtract the predicted part
    return flops + 8 * K * r + 2 * K     # s_hat += V_l f


def kernel_bytes(L: int, N: int, K: int, r: int, S: int,
                 quantized: bool) -> int:
    """Computed compulsory bytes of one `apply_chain` call.

    Every operand is read once and the estimate written once, as complex128
    (16 B) and float64 (8 B); caches and temporaries are not modelled.
    """
    n = 16 * (L * N * K + L * r * N + L * K * r + L * N * S + K * S)
    if quantized:
        n += 16 * L * r * S + 2 * 8 * L * r
    return n


def _kernel_counts(counters, args, out):
    H, AH, _V, _g, _d, Y, _D, mode, quantized = args
    L, N, K = H.shape
    r, S = AH.shape[1], Y.shape[2]
    counters["kernel_ap_samples"] += L * S
    counters["kernel_flops"] += L * S * kernel_flops_per_ap_sample(
        N, K, r, mode, quantized)
    counters["kernel_bytes"] += kernel_bytes(L, N, K, r, S, quantized)
    if quantized:
        counters["kernel_clipped"] += int(out[1].sum())
        counters["kernel_quantized"] += 2 * L * r * S


def _collect_counts(counters, args, out):
    plan, Y = args[0], args[1]
    if plan.option.quantized:
        L, r = plan.AH.shape[:2]
        counters["collect_clipped"] += int(out[3].sum())
        counters["collect_quantized"] += 2 * L * r * Y.shape[2]


COUNT_HOOKS = {"kernels.apply": _kernel_counts,
               "chain.collect": _collect_counts}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every target in `modules` (name -> module) for the block."""
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span_name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Span name -> (self seconds, inclusive seconds, calls)."""
        covered = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            agg = out[name]
            agg[0] += t1 - t0 - covered[i]
            agg[1] += t1 - t0
            agg[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _p in self.spans if n == name]
