"""Experiment orchestration: seeding, trial loops, and aggregation.

Randomness is derived, never shared: every (placement, block, sample,
role) tuple maps to its own counter-based Philox stream, so any trial can
be reproduced in isolation and worker count cannot change results. All
processing options inside one sample consume identical channel, signal,
and noise draws (common random numbers); only the dither is per-option.
Which tuple feeds which draw is stated once, in the `trial_*` functions,
and only they call `seed_stream`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial

import numpy as np

from . import kernels
from .chain import ChainNumericsError, apply_chain_collect, build_chain_plan
from .config import NOISE_KINDS, ExperimentPlan, NetworkConfig, Option
from .geometry import crandn, draw_channel, generate_placement
from .metrics import (Cell, ber_sums, fronthaul_bitrate, multiplier_width,
                      nmse_sums)
from .quantizer import StatReport, draw_dither, validate_noise_statistics


class RunFailedError(RuntimeError):
    """Too many trials aborted on numerical errors."""


ABORT_BUDGET = 1e-3  # fraction of (placement, block) trials allowed to fail
# Plans per stacked build_chain_plan call (blocks x axis points). Past a
# few dozen, the recursion's per-plan time levels off; the cap bounds the
# memory that one chunk's plans hold.
PLAN_CAP = 64


class Role(IntEnum):
    PLACEMENT = 1
    CHANNEL = 2
    NOISE = 3
    SIGNAL = 4
    DITHER = 5
    MISC = 6


def seed_stream(master_seed: int, placement_idx: int, block_idx: int,
                sample_idx: int, role: Role,
                option_tag: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one (indices, role) tuple."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(int(placement_idx), int(block_idx), int(sample_idx),
                   int(role), int(option_tag)))
    return np.random.Generator(np.random.Philox(ss))


def trial_channels(cfg, ms, pairs):
    """Channels (T, L, N, K) of T (placement, block) pairs."""
    where = {p: generate_placement(cfg, seed_stream(
        ms, p, 0, 0, Role.PLACEMENT)) for p in {p for p, _ in pairs}}
    return np.stack([draw_channel(cfg, where[p], seed_stream(
        ms, p, blk, 0, Role.CHANNEL)).H for p, blk in pairs])


def trial_noise(cfg, ms, placement, block, S, sample=0):
    """A block's noise (L, N, S) at variance sigma2, from sample `sample`."""
    noise = crandn(seed_stream(ms, placement, block, sample, Role.NOISE),
                   cfg.L, cfg.N, S)
    noise *= np.sqrt(cfg.sigma2)
    return noise


def trial_samples(cfg, ms, placement, block, H, S, sample=0):
    """(s, Y): a block's Gaussian symbols (K, S) at power p and the samples
    H's APs receive, formed in the noise draw's array."""
    Y = trial_noise(cfg, ms, placement, block, S, sample)[:H.shape[-3]]
    s = crandn(seed_stream(ms, placement, block, sample, Role.SIGNAL),
               cfg.K, S)
    s *= np.sqrt(cfg.p)
    Y += H @ s
    return s, Y


def trial_bpsk(cfg, ms, placement, block, H, S, p):
    """(bits, Y): a block's BPSK bits (K, S) and the samples H's APs
    receive at each transmit power of p (B,), (B, L, N, S)."""
    bits = seed_stream(ms, placement, block, 0, Role.SIGNAL).integers(
        0, 2, size=(cfg.K, S))
    s = (2.0 * bits - 1.0).astype(complex)
    Y = np.sqrt(p)[:, None, None, None] * (H @ s)
    Y += trial_noise(cfg, ms, placement, block, S)
    return bits, Y


def trial_collect_ap(cfg, ms):
    """The AP whose quantization noise the noise statistics report."""
    return int(seed_stream(ms, 0, 0, 0, Role.MISC).integers(cfg.L))


def trial_dither(ms, placement, block, option, shape, sample=0):
    """A block's unit dither for one option, of shape (..., S)."""
    return draw_dither(seed_stream(ms, placement, block, sample, Role.DITHER,
                                   option_tag=option.mode), shape)


@dataclass
class SweepResult:
    """Aggregated output of one experiment.

    `tables` maps each CSV file name to its (header, rows), in the order
    the files are written; rows is a list of rows or a 2-D float array.
    `metadata` holds what the run itself measured.
    """

    options: list                     # option value strings, plan order
    axis_name: str = ""               # sweeps only, as are the next two
    axis_values: list = field(default_factory=list)
    metric: str = ""                  # "nmse" | "ber"
    cells: dict = field(default_factory=dict)  # (opt_value, idx) -> Cell
    metadata: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    stat_report: StatReport | None = None         # noise kinds only

    def value(self, option, idx: int) -> float:
        return self.cells[self._key(option, idx)].value(self.metric)

    def halfwidth(self, option, idx: int) -> float:
        return self.cells[self._key(option, idx)].halfwidth()

    def placement_values(self, option, idx: int) -> np.ndarray:
        return self.cells[self._key(option, idx)].placement_values

    def _key(self, option, idx):
        name = option.value if isinstance(option, Option) else str(option)
        return (name, idx)

    def table(self):
        """Header plus one row per axis value for CSV emission."""
        header = [self.axis_name]
        for o in self.options:
            header += [f"{o}_{self.metric}", f"{o}_{self.metric}_hw"]
        rows = []
        for i, x in enumerate(self.axis_values):
            row = [x]
            for o in self.options:
                row += [self.value(o, i), self.halfwidth(o, i)]
            rows.append(row)
        return header, rows


def _axis_and_metric(plan: ExperimentPlan):
    if plan.kind == "nmse_vs_bits":
        return "b_l", list(plan.bits_sweep), "nmse"
    return "p_db", list(plan.power_sweep_db), "ber"


def _pairs_per_chunk(plan: ExperimentPlan) -> int:
    """(placement, block) pairs per stacked plan call: as many as fit in
    PLAN_CAP plans against the whole axis, at least one."""
    return max(1, PLAN_CAP // len(_axis_and_metric(plan)[1]))


def _placement_worker(args):
    """Everything a run of whole placements contributes to a sweep; fully
    seeded.

    args is (cfg, plan, placements), placements a range. The task's
    (placement, block) pairs, placement-major, are walked in chunks of
    `_pairs_per_chunk`, one chunk at a time; a chunk may span placements.
    For each chunk, one stacked plan call per option covers the chunk's
    channels and the whole axis (`_plan_chunk`). Then each pair draws its
    truth and samples (`trial_samples` or `trial_bpsk`) and unit dither
    (one per quantized option, for the whole axis) and makes one kernel
    call per option on its slice of the plan, whose scores and clip counts
    broadcast to the whole axis.
    Chunk and task boundaries depend on the plan and the worker count
    alone, and each placement's cells accumulate its own blocks in block
    order, so neither boundary can change a result.

    Each (placement, block) pair is all-or-nothing: a pair whose plan
    fails for any option is dropped for every option, so all options stay
    paired on the same draws, and it is recorded once, with the first
    option that failed. Returns one (placement, cells, aborts) per
    placement, in placement order.
    """
    cfg, plan, placements = args
    ms = plan.master_seed
    _, axis, metric = _axis_and_metric(plan)
    L, K, S = cfg.L, cfg.K, plan.n_samples
    if metric == "nmse":
        sweep = {"bits": np.asarray(axis)[:, None]}
        score, trial = nmse_sums, partial(trial_samples, cfg, ms, S=S)
    else:  # ber_vs_power
        sweep = {"p": 10.0 ** (np.asarray(axis, dtype=float) / 10.0)}
        score = ber_sums
        trial = partial(trial_bpsk, cfg, ms, S=S, p=sweep["p"])
    pairs = [(p_idx, blk) for p_idx in placements
             for blk in range(plan.n_blocks)]
    channels = trial_channels(cfg, ms, pairs)
    per_chunk = _pairs_per_chunk(plan)

    cells = {p_idx: {} for p_idx in placements}
    aborts = {p_idx: [] for p_idx in placements}
    for first in range(0, len(pairs), per_chunk):
        chunk = pairs[first:first + per_chunk]
        Hs = channels[first:first + per_chunk]
        failed = {}  # (placement, block) -> its abort record
        plans = {opt: _plan_chunk(cfg, opt, Hs, sweep, chunk, failed)
                 for opt in plan.options}
        for j, (p_idx, blk) in enumerate(chunk):
            if (p_idx, blk) in failed:
                aborts[p_idx].append(failed[p_idx, blk])
                continue
            H = Hs[j]
            truth, Y = trial(p_idx, blk, H)
            p_cells = cells[p_idx]
            for opt in plan.options:
                cplan = plans[opt][j]
                D = (trial_dither(ms, p_idx, blk, opt, (L, cplan.r, S))
                     if opt.quantized else None)
                sh, clips = kernels.apply_chain(
                    H, cplan.AH, cplan.V, cplan.gamma, cplan.delta, Y, D,
                    cplan.mode, opt.quantized)
                a, b = score(truth, sh)
                a = np.broadcast_to(a, (len(axis), K))
                clips = np.broadcast_to(clips, (len(axis), L))
                for i in range(len(axis)):
                    key = (opt.value, i)
                    if key not in p_cells:
                        p_cells[key] = Cell.zeros(K)
                    p_cells[key].merge(Cell(a[i], b, S, int(clips[i].sum())))
    return [(p_idx, cells[p_idx], aborts[p_idx]) for p_idx in placements]


def _plan_chunk(cfg, opt, Hs, sweep, pairs, failed):
    """One option's plans for a chunk of (placement, block) pairs with
    channels Hs: a list of each pair's plan, None where a pair has no plan.

    One build_chain_plan call stacks the chunk's channels against the
    sweep (bits or p) and each pair takes its slice. If the call fails,
    the pairs not yet in `failed` are planned one at a time, and each one
    that fails is recorded there, keyed by (placement, block), as its
    abort.
    """
    try:
        stacked = build_chain_plan(cfg, Hs[:, None], option=opt, **sweep)
        return [stacked.block(j) for j in range(len(Hs))]
    except (ChainNumericsError, np.linalg.LinAlgError):
        pass
    plans = []
    for H_blk, (p_idx, blk) in zip(Hs, pairs):
        cplan = None
        if (p_idx, blk) not in failed:
            try:
                cplan = build_chain_plan(cfg, H_blk, option=opt, **sweep)
            except (ChainNumericsError, np.linalg.LinAlgError) as e:
                failed[p_idx, blk] = {"placement": p_idx, "block": blk,
                                      "option": opt.value,
                                      "error": f"{type(e).__name__}: {e}"}
        plans.append(cplan)
    return plans


def _aggregate_sweep(cfg, plan, results, metric):
    n_p = plan.n_placements
    agg: dict[tuple, Cell] = {}
    aborts = []
    for p_idx, cells, p_aborts in results:
        aborts += p_aborts
        for key, part in sorted(cells.items()):
            if key not in agg:
                agg[key] = Cell.zeros(cfg.K, n_p)
            agg[key].merge(part)
            agg[key].placement_values[p_idx] = part.value(metric)
    total_trials = plan.n_placements * plan.n_blocks
    if len(aborts) / total_trials > ABORT_BUDGET:
        raise RunFailedError(
            f"{len(aborts)}/{total_trials} trials aborted "
            f"(budget {ABORT_BUDGET:.1%}); first: {aborts[0]}")
    return agg, aborts, total_trials


def _run_noise_stats(plan: ExperimentPlan, cfg: NetworkConfig) -> SweepResult:
    """Shared flow for the noise-CDF and noise-covariance experiments.

    One placement, one coherence block (one fixed calibration) of the
    plan's one quantized option, sample chunks streamed through the
    collect path of the chain.

    Only AP `ap` is reported, so the chain is planned and run on APs
    0..ap alone: the recursion and the kernel are causal, so its noise,
    inputs and steps are those of the full chain, bit for bit. A chunk's
    noise and dither are drawn for all L APs, so no stream depends on `ap`.
    """
    ms = plan.master_seed
    option, = plan.options
    H, = trial_channels(cfg, ms, [(0, 0)])
    ap = trial_collect_ap(cfg, ms)
    n = ap + 1
    cplan = build_chain_plan(cfg, H[:n], option=option, bits=cfg.b_l[:n])
    total = plan.n_samples * plan.n_blocks * plan.n_placements
    chunk = 20_000
    eta, pre = np.empty((2, cplan.r, total), dtype=complex)
    for done in range(0, total, chunk):
        S = min(chunk, total - done)
        _, Y = trial_samples(cfg, ms, 0, 0, cplan.H, S, sample=done)
        D = trial_dither(ms, 0, 0, option, (cfg.L, cplan.r, S), sample=done)
        _, eta[:, done:done + S], pre[:, done:done + S], _ = \
            apply_chain_collect(cplan, Y, D[:n], collect_ap=ap)
    del Y, D  # the last chunk's draws: free them for the validation
    cdf = plan.kind == "noise_cdf"
    report = validate_noise_statistics(
        eta, pre, cplan.delta[ap],
        cdf_grid=np.linspace(0.0, 1.0, 2001) if cdf else None)
    if cdf:
        tables = {f"noise_cdf_pair{i}.csv": (StatReport.CDF_HEADER, table)
                  for i, table in enumerate(report.cdfs)}
        tables["noise_stats.csv"] = (StatReport.HEADER, list(report.rows()))
    else:
        tables = {"noise_cov.csv": (StatReport.COV_HEADER, np.column_stack(
            [np.arange(1, cplan.r + 1), report.diag, report.eig]))}
    return SweepResult(options=[option.value], tables=tables,
                       stat_report=report)


def _run_bitrate_table(plan: ExperimentPlan, cfg: NetworkConfig) -> SweepResult:
    rows = []
    for b in plan.bits_sweep:
        rate, b_s = fronthaul_bitrate(cfg, b_l=b)
        width, _ = multiplier_width(cfg.b_c, b, cfg.r)
        rows.append([b, width, b_s, rate])
    header = ["b_l", "multiplier_width", "b_s", "bitrate_bits_per_s"]
    return SweepResult(options=[], tables={"bitrate.csv": (header, rows)})


def run_experiment(plan: ExperimentPlan, cfg: NetworkConfig,
                   workers: int = 1) -> SweepResult:
    """Execute a plan and aggregate results deterministically.

    The result depends only on (plan, cfg), never on the worker count:
    per-placement partials are merged in placement order. A sweep's
    placements are split into tasks (`_placement_worker`) of

        per_task = max(1, min(per_chunk // n_blocks,
                              ceil(n_placements / workers)))

    consecutive placements, per_chunk = `_pairs_per_chunk`: as many whole
    placements as fill one stacked plan call, but no more than an even
    share of the placements per worker. The pool has min(workers, tasks)
    processes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    if plan.kind in NOISE_KINDS:
        result = _run_noise_stats(plan, cfg)
    elif plan.kind == "bitrate_table":
        result = _run_bitrate_table(plan, cfg)
    else:
        axis_name, axis, metric = _axis_and_metric(plan)
        n_p = plan.n_placements
        per_task = max(1, min(_pairs_per_chunk(plan) // plan.n_blocks,
                              -(-n_p // workers)))
        args = [(cfg, plan, range(n_p)[first:first + per_task])
                for first in range(0, n_p, per_task)]
        workers = min(workers, len(args))
        if workers > 1:
            # imported here: a serial run does not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            # a fork pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=workers) as pool:
                tasks = list(pool.map(_placement_worker, args))
        else:
            tasks = [_placement_worker(a) for a in args]
        results = [part for task in tasks for part in task]
        cells, aborts, total = _aggregate_sweep(cfg, plan, results, metric)
        result = SweepResult(
            options=[o.value for o in plan.options], axis_name=axis_name,
            axis_values=axis, metric=metric, cells=cells)
        result.tables[f"{plan.kind}.csv"] = result.table()
        result.metadata["aborted_trials"] = len(aborts)
        result.metadata["total_trials"] = total
        result.metadata["aborts"] = aborts
    # config, plan (with the master seed) and version are in the manifest
    result.metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return result
