#!/usr/bin/env python3
"""Sweep benchmark for cfchain: three workloads, end to end and per layer.

Run from the root of a source checkout (the one holding `src/cfchain`):

    python3 perfbench/run.py --workload fig4-bits --seed 1 --trace 0
    python3 perfbench/run.py --smoke            # all workloads, tiny, 2 modes
    python3 perfbench/run.py --write-reference  # refresh reference/ (seed 1)

A pass runs each of the workload's presets through the public
`cfchain.harness.run_experiment` and `cfchain.runio.emit_results` and times
the two calls. With `--trace 0` the benchmark repeats passes for `--seconds`
and reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes (see tracer.py) and reports per-layer metrics. Either way
the last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

Outputs are checked on every run (checks.py). `attempted` counts the
(placement, block) trials run, one per noise-statistics run; `failed` counts
aborted trials plus failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1       # the presets' own seed; reference/ was written with it
MIN_PASSES = 3         # per pass kind, whatever --seconds asks for
SETUP_PROCS = 3        # fresh interpreters per setup_s measurement
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    presets: tuple
    placements: int | None  # None keeps each preset's own placement count
    pool: bool              # True: one placement worker per usable core


WORKLOADS = {
    # 25 covariance recursions per block on only 100 samples, serial: the
    # plan (build_chain_plan) dominates, so a batched plan shows here first.
    "fig4-bits": Workload(("fig4",), 8, False),
    # 44 plans per block on 500 samples each: kernel level with the plan.
    # Runs the process pool, where the slower of the two placements sets
    # the wall time.
    "fig5-power": Workload(("fig5",), 2, True),
    # Full-size noise statistics: one plan, then 120 000 samples per preset
    # through apply_chain_collect, the noise validation and the largest
    # CSVs. Plan or kernel work should leave it unchanged.
    "noise-stats": Workload(("fig2", "fig3"), None, False),
}

# Tiny plans for --smoke; noise statistics need >= 10 000 unclipped samples.
SMOKE_SIZES = {
    "fig4": {"n_placements": 1, "n_blocks": 1},
    "fig5": {"n_placements": 2, "n_blocks": 1, "n_samples": 50},
    "fig2": {"n_samples": 15_000},
    "fig3": {"n_samples": 15_000},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "chain_samples_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "chain.plan_s": "s",
    "chain.plan_calls": "count",
    "chain.plan_us_per_call": "us",
    "chain.pca_basis_s": "s",
    "chain.collect_s": "s",
    "chain.collect_calls": "count",
    "kernels.apply_s": "s",
    "kernels.apply_calls": "count",
    "kernels.ns_per_ap_sample": "ns",
    "kernels.flops_computed": "flop",
    "kernels.bytes_computed": "B",
    "harness.self_s": "s",
    "harness.experiment_self_s": "s",
    "harness.seed_stream_s": "s",
    "harness.seed_stream_calls": "count",
    "harness.aggregate_s": "s",
    "harness.task_p50_ms": "ms",
    "harness.task_phigh_ms": "ms",
    "harness.task_phigh_pct": "%",
    "harness.task_count": "count",
    "harness.parallel_eff": "frac",
    "harness.failed_trial_frac": "frac",
    "geometry.placement_s": "s",
    "geometry.channel_s": "s",
    "geometry.crandn_s": "s",
    "quantizer.calibrate_s": "s",
    "quantizer.validate_s": "s",
    "quantizer.clip_frac": "frac",
    "runio.emit_s": "s",
    "runio.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.plan_kernel_share": "frac",
    "trace_overhead_frac": "frac",
}

# Interpreter start -> cfchain imported and one chain plan of the preset
# built. Prints the monotonic clock, which the parent shares on Linux.
SETUP_CODE = """
import sys, time
import cfchain.harness, cfchain.runio
from cfchain.chain import build_chain_plan
from cfchain.geometry import draw_channel, generate_placement
from cfchain.harness import Role, seed_stream
from cfchain.presets import preset
cfg, plan = preset(sys.argv[1], seed=int(sys.argv[2]))
ms = plan.master_seed
placement = generate_placement(cfg, seed_stream(ms, 0, 0, 0, Role.PLACEMENT))
ch = draw_channel(cfg, placement, seed_stream(ms, 0, 0, 0, Role.CHANNEL))
build_chain_plan(cfg, ch.H)
print(repr(time.monotonic()))
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS/OpenMP thread per process, so workers x threads <= cores."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cfchain() -> SimpleNamespace:
    """Import cfchain from the checkout's src/, never from elsewhere."""
    if not (SRC / "cfchain" / "__init__.py").is_file():
        raise SetupError(f"no cfchain package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfchain
    from cfchain import chain, geometry, harness, kernels, presets, runio
    if Path(cfchain.__file__).resolve().parent != SRC / "cfchain":
        raise SetupError(f"imported cfchain from {cfchain.__file__}")
    modules = {"chain": chain, "geometry": geometry, "harness": harness,
               "kernels": kernels}
    return SimpleNamespace(presets=presets, runio=runio, harness=harness,
                           kernels=kernels, Option=cfchain.Option,
                           modules=modules)


def make_plans(cf, workload: Workload, seed: int, smoke: bool):
    plans = []
    for name in workload.presets:
        cfg, plan = cf.presets.preset(name, seed=seed)
        changes = {}
        if workload.placements is not None:
            changes["n_placements"] = workload.placements
        if smoke:
            changes.update(SMOKE_SIZES[name])
        plans.append((name, cfg, dataclasses.replace(plan, **changes)))
    return plans


def chain_evaluations(plan) -> int:
    """Samples pushed through all L APs, over every option and axis point."""
    if plan.kind == "nmse_vs_bits":
        per_sample = sum(len(plan.bits_sweep) if o.quantized else 1
                         for o in plan.options)
    elif plan.kind == "ber_vs_power":
        per_sample = len(plan.power_sweep_db) * len(plan.options)
    else:  # noise statistics: one option through the collect path
        per_sample = 1
    return per_sample * plan.n_samples * plan.n_blocks * plan.n_placements


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclasses.dataclass
class Pass:
    kind: str
    wall: float
    cpu: float
    trials: int
    aborted: int
    bytes_written: int
    tables: dict
    results: list
    tracer: Tracer | None


def run_pass(cf, plans, kind: str, workers: int, out_root: Path,
             tracer: Tracer | None = None) -> Pass:
    """run_experiment + emit_results for every plan; only those are timed."""
    shutil.rmtree(out_root, ignore_errors=True)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    manifests = [cf.runio.RunManifest.create(cfg, plan, str(out_root / name))
                 for name, cfg, plan in plans]
    results, written = [], []
    trials = aborted = 0
    with tracer.installed(cf.modules) if tracer else contextlib.nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for (name, cfg, plan), manifest in zip(plans, manifests):
            with span("harness.run_experiment"):
                try:
                    result = cf.harness.run_experiment(plan, cfg,
                                                       workers=workers)
                except cf.harness.RunFailedError:
                    result = None
            if result is None:
                trials += plan.n_placements * plan.n_blocks
                aborted += plan.n_placements * plan.n_blocks
                continue
            with span("runio.emit"):
                written += cf.runio.emit_results(result, manifest,
                                                 str(out_root / name))
            results.append(result)
            trials += result.metadata.get("total_trials", 1)
            aborted += result.metadata.get("aborted_trials", 0)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    return Pass(kind=kind, wall=wall, cpu=cpu, trials=trials, aborted=aborted,
                bytes_written=sum(os.path.getsize(p) for p in written),
                tables=checks.read_tables(out_root), results=results,
                tracer=tracer)


def measure(cf, plans, kinds, seconds: float, out_root: Path,
            min_passes: int) -> dict[str, list[Pass]]:
    """One warm-up pass, then the kinds round-robin until time is up."""
    first, first_workers, _ = kinds[0]
    passes = {"warmup": [run_pass(cf, plans, "warmup", first_workers,
                                  out_root / "warmup")]}
    passes.update({label: [] for label, _, _ in kinds})
    deadline = time.perf_counter() + seconds
    while True:
        for label, workers, traced in kinds:
            passes[label].append(run_pass(
                cf, plans, label, workers, out_root / label,
                Tracer() if traced else None))
        if (time.perf_counter() >= deadline
                and len(passes[first]) >= min_passes):
            return passes


def check_outputs(cf, name: str, passes: dict, seed: int,
                  smoke: bool) -> list[str]:
    everything = [p for kind in passes.values() for p in kind]
    first = everything[0].tables
    failures = []
    for p in everything:
        failures += checks.identical(p.tables, first, p.kind)
    for table, data in first.items():
        failures += checks.range_failures(table, data)
    if seed == DEFAULT_SEED and not smoke:
        ref_dir = HERE / "reference" / name
        refs = checks.read_tables(ref_dir) if ref_dir.is_dir() else {}
        for table, data in first.items():
            failures += checks.reference_failures(table, data,
                                                  refs.get(table))
        failures += [f"{t}: in reference/ but not written"
                     for t in sorted(refs.keys() - first.keys())]
    for p in everything:
        if p.tracer is not None:
            cells = sum(cell.clipped for res in p.results
                        for (opt, _), cell in res.cells.items()
                        if cf.Option(opt).quantized)
            if cells != p.tracer.counters["kernel_clipped"]:
                failures.append(f"traced pass: Cell.clipped sums to {cells},"
                                " the kernels returned "
                                f"{p.tracer.counters['kernel_clipped']}")
    return failures


def setup_seconds(preset_name: str, seed: int, procs: int) -> float:
    """Median start-to-plan time over fresh interpreters, run one at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    values = []
    for _ in range(procs):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, preset_name, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        values.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any one reaped child (ru_maxrss
    is in KiB on Linux)."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(plans, runs: list[Pass], setup: float, rss: float,
               attempted: int, failed: int) -> dict:
    evaluations = sum(chain_evaluations(plan) for _, _, plan in plans)
    return {
        "wall_s": statistics.median([p.wall for p in runs]),
        "chain_samples_per_s": statistics.median(
            [evaluations / p.wall for p in runs]),
        "cpu_s": statistics.median([p.cpu for p in runs]),
        "setup_s": setup,
        "peak_rss_mb": rss,
        "trial_ok_frac": 1.0 - failed / attempted,
    }


def _pass_layers(p: Pass) -> dict:
    summary = p.tracer.summary()
    counts = p.tracer.counters

    def self_s(name):
        return summary.get(name, (0.0, 0.0, 0))[0]

    def incl_s(name):
        return summary.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return summary.get(name, (0.0, 0.0, 0))[2]

    quantized = counts["kernel_quantized"] + counts["collect_quantized"]
    clipped = counts["kernel_clipped"] + counts["collect_clipped"]
    ap_samples = counts["kernel_ap_samples"]
    return {
        "chain.plan_s": self_s("chain.plan"),
        "chain.plan_calls": calls("chain.plan"),
        "chain.plan_us_per_call": (incl_s("chain.plan") * 1e6
                                   / max(calls("chain.plan"), 1)),
        "chain.pca_basis_s": self_s("chain.pca_basis"),
        "chain.collect_s": self_s("chain.collect"),
        "chain.collect_calls": calls("chain.collect"),
        "kernels.apply_s": self_s("kernels.apply"),
        "kernels.apply_calls": calls("kernels.apply"),
        "kernels.ns_per_ap_sample": (self_s("kernels.apply") * 1e9
                                     / ap_samples if ap_samples else 0.0),
        "kernels.flops_computed": counts["kernel_flops"],
        "kernels.bytes_computed": counts["kernel_bytes"],
        "harness.self_s": self_s("harness.task"),
        "harness.experiment_self_s": self_s("harness.run_experiment"),
        "harness.seed_stream_s": self_s("harness.seed_stream"),
        "harness.seed_stream_calls": calls("harness.seed_stream"),
        "harness.aggregate_s": self_s("harness.aggregate"),
        "geometry.placement_s": self_s("geometry.placement"),
        "geometry.channel_s": self_s("geometry.channel"),
        "geometry.crandn_s": self_s("geometry.crandn"),
        "quantizer.calibrate_s": self_s("quantizer.calibrate"),
        "quantizer.validate_s": self_s("quantizer.validate"),
        "quantizer.clip_frac": clipped / quantized if quantized else 0.0,
        "runio.emit_s": self_s("runio.emit"),
        "runio.bytes_written": p.bytes_written,
        "trace.wall_s": p.wall,
        "trace.plan_kernel_share": (incl_s("chain.plan")
                                    + incl_s("kernels.apply")) / p.wall,
        "busy_s": incl_s("harness.task"),
        "self_sum_s": sum(v[0] for v in summary.values()),
    }


def high_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with >= 10 samples above it;
    the maximum (100) when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer(passes: dict, workers: int, attempted: int, failed: int
              ) -> tuple[dict, list[str]]:
    traced = passes["traced"]
    layers = [_pass_layers(p) for p in traced]
    out = {k: statistics.median([d[k] for d in layers]) for k in layers[0]}
    busy, self_sum = out.pop("busy_s"), out.pop("self_sum_s")
    serial_wall = statistics.median([p.wall for p in passes["serial"]])
    overhead = (out["trace.wall_s"] - serial_wall) / serial_wall
    spread = passes.get("pool", passes["serial"])
    out["harness.parallel_eff"] = busy / (
        workers * statistics.median([p.wall for p in spread]))
    tasks = [d for p in traced for d in p.tracer.durations("harness.task")]
    phigh, pct = high_percentile(tasks)
    out["harness.task_p50_ms"] = statistics.median(tasks) * 1e3
    out["harness.task_phigh_ms"] = phigh * 1e3
    out["harness.task_phigh_pct"] = pct
    out["harness.task_count"] = len(tasks)
    out["harness.failed_trial_frac"] = failed / attempted
    out["trace_overhead_frac"] = overhead
    failures = []
    # Root spans cover the timed region, so self times must add up to the
    # traced wall time up to the gaps between calls.
    if abs(self_sum - out["trace.wall_s"]) > max(abs(overhead), 0.01) * \
            out["trace.wall_s"]:
        failures.append(f"self times sum to {self_sum:.4f} s, traced wall "
                        f"is {out['trace.wall_s']:.4f} s")
    return out, failures


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(cf, name: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": name,
        "seed": seed,
        "backend": cf.kernels.active_backend(),
        "CFCHAIN_BACKEND": os.environ.get("CFCHAIN_BACKEND"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": usable_cores(),
        "workers": workers,
        "blas_threads": 1,
        "cpu": cpu_model(),
    }


def run_workload(cf, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict, list[str]]:
    """Returns (result line, environment, failure messages)."""
    workload = WORKLOADS[name]
    plans = make_plans(cf, workload, seed, smoke)
    workers = usable_cores() if workload.pool else 1
    if trace:
        kinds = [("serial", 1, False), ("traced", 1, True)]
        if workers > 1:
            kinds.append(("pool", workers, False))
    else:
        kinds = [("run", workers, False)]
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(dir=scratch))
    try:
        passes = measure(cf, plans, kinds, seconds, out_root,
                         1 if smoke else MIN_PASSES)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.rmdir()
    failures = check_outputs(cf, name, passes, seed, smoke)
    attempted = sum(p.trials for kind in passes.values() for p in kind)
    aborted = sum(p.aborted for kind in passes.values() for p in kind)
    if trace:
        values, trace_failures = per_layer(
            passes, workers, attempted, aborted + len(failures))
        failures += trace_failures
        units = PER_LAYER_UNITS
    else:
        rss = peak_rss_mb()
        setup = setup_seconds(workload.presets[0], seed,
                              1 if smoke else SETUP_PROCS)
        values = end_to_end(plans, passes["run"], setup, rss, attempted,
                            aborted + len(failures))
        units = END_TO_END_UNITS
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": aborted + len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return line, environment(cf, name, seed, workers), failures


def write_reference(cf):
    """Refresh reference/<workload>/ from one pass at the default seed."""
    for name, workload in WORKLOADS.items():
        plans = make_plans(cf, workload, DEFAULT_SEED, smoke=False)
        ref_dir = HERE / "reference" / name
        shutil.rmtree(ref_dir, ignore_errors=True)
        run_pass(cf, plans, "reference", 1, ref_dir)
        for extra in ref_dir.rglob("manifest.json"):
            extra.unlink()
        print(f"wrote {ref_dir.relative_to(ROOT)}")


def smoke(cf) -> int:
    """Every workload at tiny size, both modes; every metric name present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            t0 = time.perf_counter()
            line, _env, failures = run_workload(cf, name, DEFAULT_SEED, 0.0,
                                                trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            problems = failures + ([f"metrics {sorted(got)} != BENCHMARK.json"
                                    f" {sorted(want)}"] if got != want else [])
            ok = ok and not problems
            print(f"smoke {name} trace={int(trace)}: "
                  f"{'ok' if not problems else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s)")
            for msg in problems:
                print(f"  {msg}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--smoke", action="store_true",
                      help="all workloads at tiny size, both trace modes")
    mode.add_argument("--write-reference", action="store_true",
                      help="rewrite reference/ at the default seed")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="append {env, result} as one JSON line to FILE")
    args = ap.parse_args(argv)

    pin_threads()
    try:
        cf = load_cfchain()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(cf)
    if args.write_reference:
        write_reference(cf)
        return 0

    line, env, failures = run_workload(cf, args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace": args.trace, "env": env,
                                 "result": line}) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    for k, m in line["metrics"].items():
        print(f"  {k:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
