"""The benchmark's probe points into the package must keep resolving.

`perfbench/tracer.py` wraps functions by (module, attribute) and unpacks
the arguments and results of the chain kernel and the collect path;
`perfbench/run.py` builds plans with `presets.preset(name, seed=)` and
`build_chain_plan(cfg, H)` (its setup probe passes no option), reads
trial counts and clip counts off the result and counts the bytes
`emit_results` wrote. A rename or a changed signature would break the
benchmark, not the suite.
"""

import dataclasses
import importlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cfchain import kernels, presets
from cfchain.chain import ChainPlan, apply_chain_collect, build_chain_plan
from cfchain.config import Option
from cfchain.harness import run_experiment
from cfchain.presets import PRESETS, preset
from cfchain.runio import RunManifest, emit_results
from scenario import PERFBENCH, load_perfbench, received, scenario, \
    unit_dither


def _block(S=32):
    cfg, H = scenario(seed=1)
    plan = build_chain_plan(cfg, H, option=Option.OPTION1)
    return plan, received(cfg, H, S, seed=1)[1], unit_dither(plan, S, seed=1)


def test_every_target_resolves():
    for mod_name, attr, _span in load_perfbench("tracer").TARGETS:
        mod = importlib.import_module(f"cfchain.{mod_name}")
        assert callable(getattr(mod, attr)), (mod_name, attr)


def test_every_target_is_called(monkeypatch):
    # a target that still resolves but is no longer called through its
    # (module, attribute) would read 0 in the traced metrics, silently
    targets = {(mod_name, attr)
               for mod_name, attr, _ in load_perfbench("tracer").TARGETS}
    calls = Counter()
    for mod_name, attr in targets:
        mod = importlib.import_module(f"cfchain.{mod_name}")

        def counted(*args, _fn=getattr(mod, attr), _key=(mod_name, attr),
                    **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    for name, sizes in (("fig4", dict(n_placements=1, n_blocks=1,
                                      n_samples=10)),
                        ("fig2", dict(n_samples=15_000))):
        cfg, plan = preset(name)
        run_experiment(dataclasses.replace(plan, **sizes), cfg, workers=1)
    assert sorted(targets - set(calls)) == []


def test_plan_option_defaults_to_option1():
    cfg, H = scenario(seed=1)
    default = build_chain_plan(cfg, H)
    explicit = build_chain_plan(cfg, H, option=Option.OPTION1)
    assert default.option is explicit.option is Option.OPTION1
    for f in dataclasses.fields(ChainPlan):
        np.testing.assert_array_equal(getattr(default, f.name),
                                      getattr(explicit, f.name))


def test_kernel_call_unpacks_as_the_tracer_expects():
    tracer = load_perfbench("tracer")
    plan, Y, D = _block()
    args = (plan.H, plan.AH, plan.V, plan.gamma, plan.delta, Y, D,
            plan.mode, True)
    out = kernels.apply_chain(*args)
    counters = Counter()
    tracer._kernel_counts(counters, args, out)
    L, r, S = plan.AH.shape[0], plan.r, Y.shape[2]
    assert counters["kernel_quantized"] == 2 * L * r * S
    assert counters["kernel_clipped"] == int(out[1].sum())


def test_collect_call_unpacks_as_the_tracer_expects():
    tracer = load_perfbench("tracer")
    plan, Y, D = _block()
    out = apply_chain_collect(plan, Y, D, 2)
    counters = Counter()
    tracer._collect_counts(counters, (plan, Y, D, 2), out)
    s_hat, eta, pre, clips = out
    assert s_hat.shape == (plan.V.shape[1], Y.shape[2])
    assert eta.shape == pre.shape == (plan.r, Y.shape[2])
    assert counters["collect_clipped"] == int(clips.sum())


def test_active_backend_resolves():
    # perfbench's environment line reads it on every run; nothing in the
    # package does
    assert kernels.active_backend() == "numpy"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_seed_is_the_master_seed(name):
    _, plan = preset(name, seed=7)
    assert plan.master_seed == 7


def test_sweep_result_reads_as_the_benchmark_expects(tmp_path):
    cfg, plan = preset("fig4", seed=3)
    plan = dataclasses.replace(plan, n_placements=2, n_blocks=1, n_samples=8)
    res = run_experiment(plan, cfg, workers=1)
    assert type(res.metadata["total_trials"]) is int
    assert type(res.metadata["aborted_trials"]) is int
    assert res.metadata["total_trials"] == 2
    assert set(res.cells) == {(o.value, i) for o in plan.options
                              for i in range(len(plan.bits_sweep))}
    assert all(type(c.clipped) is int for c in res.cells.values())
    out = tmp_path / "fig4"
    written = emit_results(res, RunManifest.create(cfg, plan, str(out)),
                           str(out))
    assert written == [str(out / name) for name in res.tables] + [
        str(out / "manifest.json")]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*res.tables, "manifest.json"])


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_sweep_kernel_calls_unpack_as_the_tracer_expects(name, monkeypatch):
    # every kernel call a sweep makes goes through the tracer's count hook,
    # and the clips it counts are the ones the run's cells accumulated
    tracer = load_perfbench("tracer")
    counters = Counter()
    calls = []
    real = kernels.apply_chain

    def counted(*args):
        out = real(*args)
        tracer._kernel_counts(counters, args, out)
        calls.append(args[0].shape)
        return out

    monkeypatch.setattr(kernels, "apply_chain", counted)
    cfg, plan = preset(name, seed=2)
    # 6 blocks: more than one plan chunk on the power axis
    plan = dataclasses.replace(plan, n_placements=2, n_blocks=6,
                               n_samples=20)
    res = run_experiment(plan, cfg, workers=1)
    assert calls == [(cfg.L, cfg.N, cfg.K)] * (
        plan.n_placements * plan.n_blocks * len(plan.options))
    assert counters["kernel_clipped"] == sum(
        cell.clipped for cell in res.cells.values())
    assert counters["kernel_clipped"] > 0


# written byte for byte as in perfbench/reference/; the noise tables are
# held to the benchmark's relative tolerance, since the reference's
# noise_cdf_pair3.csv carries one digit the code no longer writes
BYTE_EXACT = ("nmse_vs_bits.csv", "ber_vs_power.csv")


def test_workloads_match_the_reference_tables(tmp_path, monkeypatch):
    # every benchmark workload at the default seed and the benchmark's
    # sizes, serially: a refactor that moves a CSV value fails here, not
    # only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks
    run = load_perfbench("run")
    checks = run.checks
    failures = []
    for name, workload in run.WORKLOADS.items():
        for preset_name, cfg, plan in run.make_plans(
                SimpleNamespace(presets=presets), workload,
                run.DEFAULT_SEED, smoke=False):
            out = tmp_path / name / preset_name
            emit_results(run_experiment(plan, cfg, workers=1),
                         RunManifest.create(cfg, plan, str(out)), str(out))
        tables = checks.read_tables(tmp_path / name)
        refs = checks.read_tables(PERFBENCH / "reference" / name)
        assert tables.keys() == refs.keys(), name
        for table, data in tables.items():
            failures += checks.range_failures(table, data)
            failures += checks.reference_failures(table, data, refs[table])
    exact = sorted(p.relative_to(PERFBENCH / "reference")
                   for name in BYTE_EXACT
                   for p in (PERFBENCH / "reference").rglob(name))
    assert len(exact) == len(BYTE_EXACT)
    failures += [f"{path}: bytes differ" for path in exact
                 if (tmp_path / path).read_bytes()
                 != (PERFBENCH / "reference" / path).read_bytes()]
    assert not failures, failures
