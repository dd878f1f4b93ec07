from types import SimpleNamespace

import numpy as np
import pytest

from cfchain import harness, presets
from cfchain.config import ConfigError, ExperimentPlan, NetworkConfig, Option
from cfchain.geometry import draw_channel, generate_placement
from cfchain.harness import Role, run_experiment, seed_stream


class TestSeedStream:
    def test_identical_tuples_identical_draws(self):
        a = seed_stream(7, 3, 2, 1, Role.NOISE).standard_normal(100)
        b = seed_stream(7, 3, 2, 1, Role.NOISE).standard_normal(100)
        assert np.array_equal(a, b)

    def test_roles_are_independent(self):
        n = 100_000
        a = seed_stream(7, 0, 0, 0, Role.NOISE).standard_normal(n)
        b = seed_stream(7, 0, 0, 0, Role.DITHER).standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_distinct_tuples_distinct_streams(self):
        seen = set()
        for s in range(250):
            for role in (Role.NOISE, Role.SIGNAL):
                for tag in (0, 1):
                    first = seed_stream(1, 0, 0, s, role, tag).integers(
                        0, 2 ** 62)
                    seen.add(int(first))
        assert len(seen) == 250 * 2 * 2

    def test_option_tag_changes_stream(self):
        a = seed_stream(1, 0, 0, 0, Role.DITHER, option_tag=1).random(10)
        b = seed_stream(1, 0, 0, 0, Role.DITHER, option_tag=2).random(10)
        assert not np.array_equal(a, b)

    def test_block_indices_independent(self):
        n = 100_000
        a = seed_stream(7, 0, 0, 0, Role.CHANNEL).standard_normal(n)
        b = seed_stream(7, 0, 1, 0, Role.CHANNEL).standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def _poison(monkeypatch, cfg, plan, targets):
    """Make the harness's build_chain_plan fail for each (placement,
    block, option) in targets: whenever it plans that option on H that
    holds that block's channel, whether stacked with other blocks or
    alone. Returns each placement's block channels, {placement: [H]}."""
    import cfchain.harness as hmod
    ms = plan.master_seed
    channels = {}
    for p_idx in sorted({t[0] for t in targets}):
        where = generate_placement(
            cfg, seed_stream(ms, p_idx, 0, 0, Role.PLACEMENT))
        channels[p_idx] = [draw_channel(
            cfg, where, seed_stream(ms, p_idx, blk, 0, Role.CHANNEL)).H
            for blk in range(plan.n_blocks)]
    poisoned = [(channels[p_idx][blk], opt) for p_idx, blk, opt in targets]
    real = hmod.build_chain_plan

    def failing(cfg_, H, option=Option.OPTION1, **kwargs):
        stack = H.reshape(-1, *H.shape[-3:])
        for H_bad, opt in poisoned:
            if option is opt and any(np.array_equal(h, H_bad)
                                     for h in stack):
                raise np.linalg.LinAlgError("synthetic failure")
        return real(cfg_, H, option=option, **kwargs)

    monkeypatch.setattr(hmod, "build_chain_plan", failing)
    return channels


@pytest.fixture
def pool_sizes(monkeypatch):
    """Put an in-process pool in place of the harness's process pool;
    returns the list of the sizes it is made with."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return sizes


def _tiny_plan(**kw):
    kw.setdefault("kind", "nmse_vs_bits")
    kw.setdefault("bits_sweep", (2, 4))
    kw.setdefault("n_placements", 6)
    kw.setdefault("n_blocks", 2)
    kw.setdefault("n_samples", 24)
    kw.setdefault("master_seed", 11)
    return ExperimentPlan(**kw)


class TestRunExperiment:
    def test_deterministic_rerun(self):
        cfg = NetworkConfig()
        a = run_experiment(_tiny_plan(), cfg)
        b = run_experiment(_tiny_plan(), cfg)
        for o in a.options:
            for i in range(len(a.axis_values)):
                assert a.value(o, i) == b.value(o, i)
                assert a.halfwidth(o, i) == b.halfwidth(o, i)

    def test_lossless_curve_is_flat(self):
        cfg = NetworkConfig()
        plan = _tiny_plan(options=(Option.NOQUANT,), bits_sweep=(1, 3, 8))
        res = run_experiment(plan, cfg)
        vals = [res.value("noquant", i) for i in range(3)]
        assert vals[0] == vals[1] == vals[2]

    def test_workers_do_not_change_results(self):
        cfg = NetworkConfig()
        plan = _tiny_plan(n_placements=8)
        seq = run_experiment(plan, cfg, workers=1)
        par = run_experiment(plan, cfg, workers=4)
        for o in seq.options:
            for i in range(len(seq.axis_values)):
                assert seq.value(o, i) == par.value(o, i)
                assert seq.halfwidth(o, i) == par.halfwidth(o, i)
                assert np.array_equal(seq.placement_values(o, i),
                                      par.placement_values(o, i))

    @pytest.mark.parametrize("placements,workers,pools", [
        (2, 8, [2]), (3, 2, [2]), (1, 8, []), (4, 1, [])])
    def test_pool_is_sized_by_the_placements(self, pool_sizes, placements,
                                             workers, pools):
        cfg = NetworkConfig()
        plan = _tiny_plan(n_placements=placements, n_blocks=1)
        res = run_experiment(plan, cfg, workers=workers)
        assert pool_sizes == pools
        ref = run_experiment(plan, cfg)
        assert res.tables == ref.tables

    @pytest.mark.parametrize("workers,pools", [(1, []), (3, [3])])
    def test_tasks_spanning_placements_change_no_result(
            self, monkeypatch, pool_sizes, workers, pools):
        # 8 bit widths: 8 pairs per plan chunk, so tasks of 2 placements x
        # 3 blocks, the last one short; the reference runs one placement
        # per task and one pair per chunk
        cfg = NetworkConfig()
        plan = _tiny_plan(n_placements=7, n_blocks=3, n_samples=8,
                          bits_sweep=tuple(range(1, 9)))
        tasks = []
        worker = harness._placement_worker

        def spy(args):
            tasks.append(args[2])
            return worker(args)

        monkeypatch.setattr(harness, "_placement_worker", spy)
        res = run_experiment(plan, cfg, workers=workers)
        assert tasks == [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]
        assert pool_sizes == pools
        tasks.clear()
        monkeypatch.setattr(harness, "PLAN_CAP", len(plan.bits_sweep))
        ref = run_experiment(plan, cfg)
        assert tasks == [range(i, i + 1) for i in range(7)]
        assert res.tables == ref.tables
        for o in plan.options:
            for i in range(len(plan.bits_sweep)):
                assert np.array_equal(res.placement_values(o, i),
                                      ref.placement_values(o, i))

    def test_workers_below_one_are_refused(self):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_experiment(_tiny_plan(), NetworkConfig(), workers=0)

    def test_pair_failing_in_a_chunk_of_placements_is_dropped_alone(
            self, monkeypatch):
        # 4 placements x 2 blocks fill one stacked plan call; block 1 of
        # placement 2 fails on option2 and is dropped alone, for every
        # option
        plan = _tiny_plan(n_placements=4, n_blocks=2, n_samples=8,
                          options=(Option.OPTION1, Option.OPTION2,
                                   Option.NOQUANT))
        assert harness.PLAN_CAP // len(plan.bits_sweep) >= 8
        cfg = NetworkConfig()
        _poison(monkeypatch, cfg, plan, [(2, 1, Option.OPTION2)])
        stacked = []
        failing = harness.build_chain_plan

        def spy(cfg_, H, **kwargs):
            stacked.append(H.reshape(-1, *H.shape[-3:]).shape[0])
            return failing(cfg_, H, **kwargs)

        monkeypatch.setattr(harness, "build_chain_plan", spy)
        parts = harness._placement_worker((cfg, plan, range(4)))
        assert max(stacked) == 8  # one call spans all four placements
        assert [p_idx for p_idx, _, _ in parts] == [0, 1, 2, 3]
        keys = {(o.value, i) for o in plan.options
                for i in range(len(plan.bits_sweep))}
        for p_idx, cells, aborts in parts:
            assert set(cells) == keys
            blocks = 1 if p_idx == 2 else 2
            assert {c.count for c in cells.values()} == {blocks * 8}
            assert aborts == ([] if p_idx != 2 else [{
                "placement": 2, "block": 1, "option": "option2",
                "error": "LinAlgError: synthetic failure"}])

    @pytest.mark.parametrize("workload,calls", [("fig4-bits", 8),
                                                ("fig5-power", 16)])
    def test_workload_plan_calls(self, monkeypatch, workload, calls):
        # the benchmark's workloads as perfbench/run.py builds them, run
        # serially: fig4-bits fills each 64-plan chunk with 4 placements x
        # 2 blocks (2 chunks x 4 options), fig5-power keeps one placement
        # per task and 5 of its 10 blocks per chunk (4 chunks x 4 options)
        from test_bench_contract import PERFBENCH, _perfbench
        monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks
        run = _perfbench("run")
        n = 0
        real = harness.build_chain_plan

        def counting(*args, **kwargs):
            nonlocal n
            n += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "build_chain_plan", counting)
        for _, cfg, plan in run.make_plans(
                SimpleNamespace(presets=presets), run.WORKLOADS[workload],
                run.DEFAULT_SEED, smoke=False):
            run_experiment(plan, cfg, workers=1)
        assert n == calls

    def test_cells_carry_counts(self):
        cfg = NetworkConfig()
        plan = _tiny_plan()
        res = run_experiment(plan, cfg)
        expected = plan.n_placements * plan.n_blocks * plan.n_samples
        for key, cell in res.cells.items():
            assert cell.count == expected

    def test_ber_kind_smoke(self):
        cfg = NetworkConfig()
        plan = ExperimentPlan(kind="ber_vs_power", power_sweep_db=(-10.0, 0.0),
                              n_placements=4, n_blocks=2, n_samples=50,
                              options=(Option.OPTION1, Option.NOQUANT),
                              master_seed=5)
        res = run_experiment(plan, cfg)
        for o in res.options:
            b = [res.value(o, i) for i in range(2)]
            assert all(0.0 <= x <= 1.0 for x in b)
            assert b[1] <= b[0] + 0.05  # more power, fewer errors

    def test_halfwidth_doubling_schedule(self):
        # doubling the independent trials shrinks the half-width by sqrt(2)
        cfg = NetworkConfig()
        small = run_experiment(_tiny_plan(n_placements=64, bits_sweep=(3,),
                                          n_blocks=1, master_seed=21), cfg)
        big = run_experiment(_tiny_plan(n_placements=128, bits_sweep=(3,),
                                        n_blocks=1, master_seed=21), cfg)
        ratio = small.halfwidth("option1", 0) / big.halfwidth("option1", 0)
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.20)

    def test_numerical_failures_exceed_budget(self, monkeypatch):
        plan = _tiny_plan()
        cfg = NetworkConfig()
        _poison(monkeypatch, cfg, plan,
                [(p, 1, Option.OPTION2) for p in range(plan.n_placements)])
        from cfchain.harness import RunFailedError
        with pytest.raises(RunFailedError, match="aborted"):
            run_experiment(plan, cfg)

    def test_aborted_block_keeps_options_paired(self, monkeypatch):
        # one factorization fails on the second option of the first block:
        # the whole block is dropped, so every cell keeps the same count
        # 1000 trials: one abort stays within ABORT_BUDGET
        plan = _tiny_plan(n_placements=1, n_blocks=1000, n_samples=2,
                          bits_sweep=(2, 4),
                          options=(Option.OPTION1, Option.OPTION2))
        cfg = NetworkConfig(L=2)
        _poison(monkeypatch, cfg, plan, [(0, 0, plan.options[1])])
        res = run_experiment(plan, cfg)
        expected = (plan.n_placements * plan.n_blocks - 1) * plan.n_samples
        assert {cell.count for cell in res.cells.values()} == {expected}
        assert res.metadata["aborted_trials"] == 1
        assert res.metadata["aborts"] == [{
            "placement": 0, "block": 0, "option": plan.options[1].value,
            "error": "LinAlgError: synthetic failure"}]

    def test_block_failing_mid_chunk_is_dropped_alone(self, monkeypatch):
        # block 2 of 5 sits inside one stacked plan call; only it is
        # dropped, for every option, and no kernel call sees it
        import cfchain.harness as hmod
        from cfchain import kernels
        plan = _tiny_plan(n_placements=1, n_blocks=5, n_samples=8,
                          options=(Option.OPTION1, Option.OPTION2,
                                   Option.NOQUANT))
        assert hmod.PLAN_CAP // len(plan.bits_sweep) >= plan.n_blocks
        cfg = NetworkConfig()
        channels = _poison(monkeypatch, cfg, plan, [(0, 2, Option.OPTION2)])
        real_apply = kernels.apply_chain
        seen = []

        def recording(H, *args):
            blk, = [b for b, h in enumerate(channels[0])
                    if np.array_equal(h, H)]
            seen.append((args[6], blk))  # (mode, block)
            return real_apply(H, *args)

        monkeypatch.setattr(kernels, "apply_chain", recording)
        (_, cells, aborts), = hmod._placement_worker((cfg, plan, range(1)))
        assert aborts == [{"placement": 0, "block": 2, "option": "option2",
                           "error": "LinAlgError: synthetic failure"}]
        assert sorted(seen) == sorted((o.mode, b) for o in plan.options
                                      for b in (0, 1, 3, 4))
        assert {cell.count for cell in cells.values()} == {4 * 8}
        assert set(cells) == {(o.value, i) for o in plan.options
                              for i in range(len(plan.bits_sweep))}

    def test_metadata_snapshot(self):
        # only what the run measured: the manifest records config and plan
        cfg = NetworkConfig()
        res = run_experiment(_tiny_plan(), cfg)
        assert set(res.metadata) == {"total_trials", "aborted_trials",
                                     "aborts", "wall_time_s"}
        assert res.metadata["total_trials"] == 12
        assert res.metadata["aborted_trials"] == 0
        assert res.metadata["aborts"] == []
        assert res.metadata["wall_time_s"] >= 0.0


class TestNoiseKinds:
    def test_noise_cdf_structure(self):
        cfg = NetworkConfig()
        plan = ExperimentPlan(kind="noise_cdf", n_placements=1, n_blocks=1,
                              n_samples=30_000, options=(Option.OPTION1,),
                              master_seed=2)
        res = run_experiment(plan, cfg)
        assert res.stat_report.ks_re.shape == (cfg.r,)
        assert list(res.tables) == [f"noise_cdf_pair{i}.csv"
                                    for i in range(cfg.r)] + ["noise_stats.csv"]
        for i in range(cfg.r):
            header, rows = res.tables[f"noise_cdf_pair{i}.csv"]
            c = np.asarray(rows)
            assert len(header) == c.shape[1] == 4
            assert np.all(np.diff(c[:, 0]) >= 0)   # values sorted
            assert c[0, 1] == 0.0 and c[-1, 1] == 1.0

    def test_noise_cov_structure(self):
        cfg = NetworkConfig()
        plan = ExperimentPlan(kind="noise_cov", n_placements=1, n_blocks=1,
                              n_samples=30_000, options=(Option.OPTION1,),
                              master_seed=2)
        res = run_experiment(plan, cfg)
        rows = np.asarray(res.tables["noise_cov.csv"][1])
        assert rows.shape == (cfg.r, 3)
        assert np.all(np.diff(rows[:, 1]) <= 0)  # descending diagonal

    def test_noise_kind_runs_the_plan_option(self):
        cfg = NetworkConfig()
        tables = {}
        for opt in (Option.OPTION1, Option.OPTION3):
            plan = ExperimentPlan(kind="noise_cov", n_placements=1,
                                  n_blocks=1, n_samples=12_000,
                                  options=(opt,), master_seed=2)
            res = run_experiment(plan, cfg)
            assert res.options == [opt.value]
            tables[opt] = res.tables["noise_cov.csv"][1]
        assert not np.array_equal(tables[Option.OPTION1],
                                  tables[Option.OPTION3])

    def test_noise_kind_runs_the_chain_up_to_the_collected_ap(
            self, monkeypatch):
        calls = []
        collect = harness.apply_chain_collect

        def spy(cplan, Y, D, collect_ap):
            calls.append((cplan.AH.shape[0], Y.shape[0], D.shape[0],
                          collect_ap))
            return collect(cplan, Y, D, collect_ap)

        monkeypatch.setattr(harness, "apply_chain_collect", spy)
        cfg = NetworkConfig()
        plan = ExperimentPlan(kind="noise_cdf", n_placements=1, n_blocks=1,
                              n_samples=12_000, options=(Option.OPTION1,),
                              master_seed=1)
        run_experiment(plan, cfg)
        ap = int(seed_stream(1, 0, 0, 0, Role.MISC).integers(cfg.L))
        assert ap + 1 < cfg.L  # this seed leaves APs after ap to skip
        assert calls == [(ap + 1, ap + 1, ap + 1, ap)]

    @pytest.mark.parametrize("options", [
        (Option.NOQUANT,), (Option.OPTION1, Option.OPTION3)])
    def test_noise_kind_takes_one_quantized_option(self, options):
        with pytest.raises(ConfigError, match="one quantized option"):
            ExperimentPlan(kind="noise_cdf", options=options)


class TestBitrateKind:
    def test_rows_match_formula(self):
        from cfchain.metrics import fronthaul_bitrate, multiplier_width
        cfg = NetworkConfig()
        plan = ExperimentPlan(kind="bitrate_table", bits_sweep=(1, 3, 8),
                              n_placements=1, n_blocks=1, n_samples=1,
                              options=(Option.OPTION1,), master_seed=1)
        res = run_experiment(plan, cfg)
        for row in res.tables["bitrate.csv"][1]:
            b = int(row[0])
            rate, b_s = fronthaul_bitrate(cfg, b_l=b)
            width, _ = multiplier_width(cfg.b_c, b, cfg.r)
            assert row[1] == width
            assert row[2] == b_s
            assert row[3] == rate
