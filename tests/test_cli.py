import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cfchain.cli import main
from cfchain.config import ConfigError, ExperimentPlan, NetworkConfig
from cfchain.harness import run_experiment
from cfchain.presets import preset
from cfchain.runio import _write_csv, build_config, parse_config
from cfchain.selftest import (Check, check_noise_statistics,
                              check_oracle_equivalence)

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_empty_file_gives_default_scenario(self, tmp_path):
        cfg, plan = parse_config(_write(tmp_path, ""))
        assert (cfg.L, cfg.N, cfg.K) == (5, 4, 10)
        assert cfg.bandwidth_hz == 100e6
        assert cfg.noise_dbm == -85.0
        assert cfg.p_db == -10.0
        assert cfg.alpha == 3.0
        assert cfg.corr_model == "uncorrelated"
        assert cfg.b_l.tolist() == [3] * 5

    def test_no_path_same_as_empty(self, tmp_path):
        a, _ = parse_config(None)
        b, _ = parse_config(_write(tmp_path, ""))
        assert a == b

    def test_sections_and_lists(self, tmp_path):
        path = _write(tmp_path, """
[network]
L = 3
bits = 2, 3, 4
p_db = -12.5

[plan]
kind = nmse_vs_bits
bits_sweep = 1, 2, 3
n_placements = 7
n_samples = 1e3
options = option1, noquant
""")
        cfg, plan = parse_config(path)
        assert cfg.L == 3
        assert cfg.bits == (2, 3, 4)
        assert cfg.p_db == -12.5
        assert plan.n_placements == 7
        assert plan.n_samples == 1000 and type(plan.n_samples) is int
        assert [o.value for o in plan.options] == ["option1", "noquant"]

    @pytest.mark.parametrize("name,text,key", [
        ("scenario.ini", "[network]\nL = 3\nnantennas = 4\n", "nantennas"),
        # one key per value: no alias of a field and no dropped key
        ("scenario.ini", "[network]\nseed = 9\n", "seed"),
        ("scenario.ini", "[network]\noption = option1\n", "option"),
        ("scenario.ini", "[network]\ncarrier_freq_hz = 2e9\n",
         "carrier_freq_hz"),
        ("manifest.json", json.dumps({"config": {"seed": 9}}), "seed"),
    ], ids=["typo", "network_seed", "option", "carrier_freq_hz",
            "manifest_seed"])
    def test_unknown_key_is_fatal(self, tmp_path, name, text, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(_write(tmp_path, text, name))

    def test_unknown_section_is_fatal(self, tmp_path):
        path = _write(tmp_path, "[netwrk]\nL = 3\n")
        with pytest.raises(ConfigError, match="netwrk"):
            parse_config(path)

    def test_alpha_checked_only_against_quantized_bit_widths(self):
        # nmse_vs_bits quantizes with bits_sweep, not bits
        build_config(dict(alpha=4.0, bits=1), dict(bits_sweep=(2, 3)))
        with pytest.raises(ConfigError, match=r"alpha=4.0, b=1"):
            build_config(dict(alpha=4.0, bits=2), dict(bits_sweep=(1, 2)))
        # a lossless-only plan quantizes nothing
        build_config(dict(alpha=200.0, bits=1),
                     dict(kind="ber_vs_power", options=("noquant",)))

    def test_readme_example_is_the_default_scenario(self, tmp_path):
        # the documented example names every key at its default value
        (text,) = re.findall(r"```ini\n(.*?)```",
                             (ROOT / "README.md").read_text(), re.S)
        assert parse_config(_write(tmp_path, text)) == parse_config(None)

    def test_overrides(self, tmp_path):
        cfg, plan = parse_config(_write(tmp_path, ""),
                                 overrides=["K=12", "n_samples=5"])
        assert cfg.K == 12
        assert plan.n_samples == 5

    def test_integers_are_read_exactly(self):
        # 2**53 + 1 has no float64: a float round trip would give 2**53
        cfg, plan = parse_config(None, ["master_seed=9007199254740993"])
        assert plan.master_seed == 9007199254740993
        _, plan = parse_config(None, ["n_samples=1e3"])
        assert plan.n_samples == 1000
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(None, ["L=2.5"])

    @pytest.mark.parametrize("override", ["zeta=1", "seed=7"],
                             ids=["typo", "seed"])
    def test_unknown_override(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(None, overrides=[override])


SMALL_RUN = """
[plan]
master_seed = 9
kind = nmse_vs_bits
bits_sweep = 2, 3
n_placements = 4
n_blocks = 1
n_samples = 16
options = option1, option3, noquant
"""


# What `validate` refuses with exit 3, by the test that checks it: the
# route of its input, then (id, source, what stderr says, naming the file
# read as {path}).
EXIT_3 = {
    "bad_config": ("ini", [
        ("bits_floor", "[network]\nbits = 0\n", "b_l >= 1"),
    ]),
    "malformed_number_in_file": ("ini", [
        ("float_key", "[network]\nalpha = x\n",
         "alpha = 'x' is not a number"),
        ("int_key", "[network]\nL = 2.5\n", "L = '2.5' is not an integer"),
        ("int_list", "[plan]\nbits_sweep = 2, 3.5\n",
         "bits_sweep = '3.5' is not an"),
    ]),
    "too_few_noise_samples": ("ini", [
        ("too_few_noise_samples", "[plan]\nkind = noise_cdf\noptions = "
         "option1\nn_samples = 2000\nn_placements = 1\nn_blocks = 1\n",
         "noise_cdf needs n_samples * n_blocks * n_placements >= 10000, "
         "got 2000"),
    ]),
    "malformed_number_override": ("override", [
        ("not_a_number", "L=abc", "L = 'abc' is not an integer"),
        ("int_key", "L=2.5", "L = '2.5' is not an integer"),
        ("float_list", "power_sweep_db=-2,y",
         "power_sweep_db = 'y' is not a number"),
        # a float key takes finite values only
        ("inf", "p_db=inf", "p_db = 'inf' is not a number"),
        ("minus_inf", "noise_dbm=-inf", "noise_dbm = '-inf' is not a number"),
        ("nan", "rho=nan", "rho = 'nan' is not a number"),
        ("area_side", "area_side=inf", "area_side = 'inf' is not a number"),
        ("overflowing_text", "bandwidth_hz=1e400",
         "bandwidth_hz = '1e400' is not a number"),
        ("non_finite_list", "power_sweep_db=-2,inf",
         "power_sweep_db = 'inf' is not a number"),
    ]),
    "out_of_range_value": ("override", [
        # a power in watts that overflows or underflows names its key
        ("p_overflows", "p_db=4000", "p_db = 4000 is out of range"),
        ("sigma2_overflows", "noise_dbm=4000",
         "noise_dbm = 4000 is out of range"),
        ("p_underflows", "p_db=-4000", "p_db = -4000 is out of range"),
        # as does a power the recursion cannot factor: p/sigma2 > 220 dB
        ("snr_above_max", "p_db=120", "p_db = 120 is out of range"),
        ("snr_above_max_by_noise", "noise_dbm=-300",
         "p_db = -10 is out of range"),
        # each power of a power sweep takes the same rule
        ("sweep_overflows", "kind=ber_vs_power power_sweep_db=-20,4000",
         "power_sweep_db = 4000 is out of range"),
        ("sweep_snr_above_max", "kind=ber_vs_power power_sweep_db=-20,150",
         "power_sweep_db = 150 is out of range"),
        # beyond 2^52 cells float64 cannot tell them apart
        ("bits", "bits=53", "bits values <= MAX_BITS = 52"),
        ("bits_overflowing_4_to_the_b", "bits=600",
         "bits values <= MAX_BITS = 52"),
        ("bits_sweep", "bits_sweep=8,60,1000,1100",
         "bits_sweep values <= MAX_BITS = 52"),
        # a seed is a SeedSequence's entropy: a non-negative integer
        ("negative_seed", "master_seed=-1", "master_seed >= 0"),
        # the bit-rate accounting divides by the coherence bandwidth and
        # time, and scales with the bandwidth: each must be positive
        ("zero_bandwidth", "bandwidth_hz=0", "bandwidth_hz > 0"),
        ("negative_bandwidth", "bandwidth_hz=-1e8", "bandwidth_hz > 0"),
        ("zero_coherence_bw", "tau_d=0 coherence_bw_hz=0",
         "coherence_bw_hz > 0"),
        ("negative_coherence_bw", "tau_d=0 coherence_bw_hz=-2e5",
         "coherence_bw_hz > 0"),
        ("zero_coherence_time", "tau_d=0 coherence_time_s=0",
         "coherence_time_s > 0"),
        ("negative_coherence_time", "tau_d=0 coherence_time_s=-1e-3",
         "coherence_time_s > 0"),
    ]),
    "manifest_section_not_an_object": ("manifest", [
        ("null_config", {"config": None},
         "manifest config is not a JSON object"),
        ("null_plan", {"plan": None}, "manifest plan is not a JSON object"),
        ("list_config", {"config": [1]},
         "manifest config is not a JSON object"),
    ]),
    "unreadable_config_file": ("path", [
        ("missing", "missing.ini", "cannot read config file {path}: "),
        ("directory", ".", "cannot read config file {path}: "),
        ("undecodable", "utf16.ini", "cannot read config file {path}: "),
    ]),
}


def _validate_exits_3(test):
    """The test that `validate` exits 3 on each case of EXIT_3[test]."""
    route, rows = EXIT_3[test]

    def check(self, tmp_path, capsys, source, message):
        if route == "override":
            args = [os.devnull] + [a for ov in source.split()
                                   for a in ("--override", ov)]
        elif route == "path":
            # a UTF-16 byte-order mark, FF FE, is not UTF-8
            (tmp_path / "utf16.ini").write_bytes(
                "[network]\nL = 3\n".encode("utf-16"))
            args = [str(tmp_path / source)]
        else:  # a config file's text or a manifest document
            args = [_write(tmp_path, source) if route == "ini" else
                    _write(tmp_path, json.dumps(source), "manifest.json")]
        assert main(["validate"] + args) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert message.format(path=args[0]) in err
        assert "Traceback" not in err

    if len(rows) == 1:  # one case: the test takes no parameters
        ((_, source, message),) = rows

        def single(self, tmp_path, capsys):
            check(self, tmp_path, capsys, source, message)
        return single
    return pytest.mark.parametrize("source,message", [
        pytest.param(source, message, id=name)
        for name, source, message in rows])(check)


class TestCliCommands:
    def test_validate_ok_writes_nothing(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL_RUN)
        before = set(os.listdir(tmp_path))
        assert main(["validate", path]) == 0
        assert set(os.listdir(tmp_path)) == before
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "[network]\nalpha = 4\n\n[plan]\nbits_sweep = 1, 2\n",
        "[network]\nalpha = 200\nbits = 1\n\n"
        "[plan]\nkind = ber_vs_power\noptions = option1\n",
    ], ids=["bits_sweep", "bits_in_power_sweep"])
    def test_validate_checks_alpha_against_the_plan(self, tmp_path, capsys,
                                                     text):
        assert main(["validate", _write(tmp_path, text)]) == 3
        assert "alpha^2 < 3*4^b violated" in capsys.readouterr().err

    def test_preset_rejects_too_few_noise_samples(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert main(["preset", "fig2", "--override", "n_samples=2000",
                     "--out", str(out)]) == 3
        assert "got 2000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unreachable_d_min_is_a_config_error(self, tmp_path, capsys,
                                                 workers):
        # validation cannot tell that no point of the area clears the
        # floor; the placement draws find out, in a pool worker too
        out = tmp_path / "fig4"
        assert main(["preset", "fig4", "--override", "d_min=1000",
                     "--override", "n_placements=2", "--workers", workers,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "d_min = 1000 m" in err
        assert "area_side = 500 m" in err
        assert "10000 draws" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_too_few_unclipped_noise_samples_fail_the_run(self, tmp_path,
                                                          capsys):
        # exactly the minimum passes validation, but at this seed the
        # clipped samples leave a quantizer pair short of it
        assert main(["preset", "fig2", "--seed", "1", "--override",
                     "n_samples=10000", "--out", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "run failed: need >= 10000 unclipped samples per quantizer pair")
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["run", "preset"])
    def test_workers_below_one_are_usage_errors(self, tmp_path, capsys,
                                                command, workers):
        target = (_write(tmp_path, SMALL_RUN) if command == "run"
                  else "bitrate")
        out = tmp_path / "out"
        assert main([command, target, "--workers", workers,
                     "--out", str(out)]) == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_produces_csv_schema(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL_RUN)
        out = tmp_path / "res"
        assert main(["run", path, "--out", str(out)]) == 0
        csv = (out / "nmse_vs_bits.csv").read_text().strip().splitlines()
        header = csv[0].split(",")
        # axis + (value, halfwidth) per option
        assert header[0] == "b_l"
        assert len(header) == 1 + 2 * 3
        assert len(csv) == 1 + 2  # two bit values
        assert (out / "manifest.json").exists()

    def test_array_and_list_tables_write_the_same_bytes(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 3.0,
                  1.2345678901e11, 1.2345678912e-5]
        table = np.array([values, values[::-1]])
        header = [f"c{i}" for i in range(len(values))]
        _write_csv(tmp_path / "array.csv", header, table)
        _write_csv(tmp_path / "list.csv", header, table.tolist())
        written = (tmp_path / "array.csv").read_bytes()
        assert written == (tmp_path / "list.csv").read_bytes()
        assert written.splitlines()[1] == (
            b"nan,inf,-inf,-0,1e-300,3,1.23456789e+11,1.23456789e-05")

    def test_full_bit_axis_schema(self, tmp_path):
        # 8 bit values x 4 options: 8 rows, 1 + 4*2 columns
        path = _write(tmp_path, """
[plan]
bits_sweep = 1, 2, 3, 4, 5, 6, 7, 8
n_placements = 2
n_blocks = 1
n_samples = 8
""")
        out = tmp_path / "full"
        assert main(["run", path, "--out", str(out)]) == 0
        lines = (out / "nmse_vs_bits.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        assert all(len(ln.split(",")) == 1 + 4 * 2 for ln in lines)

    def test_manifest_round_trip_resolves_identically(self, tmp_path):
        path = _write(tmp_path, SMALL_RUN)
        out = tmp_path / "r"
        assert main(["run", path, "--out", str(out)]) == 0
        cfg1, plan1 = parse_config(path)
        cfg2, plan2 = parse_config(str(out / "manifest.json"))
        assert cfg1 == cfg2
        assert plan1.as_dict() == plan2.as_dict()

    def test_manifest_records_everything(self, tmp_path):
        path = _write(tmp_path, SMALL_RUN)
        out = tmp_path / "r"
        assert main(["run", path, "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["L"] == 5
        assert doc["config"]["derived"]["p_watt"] == pytest.approx(0.1)
        assert doc["config"]["derived"]["sigma2_watt"] == pytest.approx(
            10.0 ** ((-85.0 - 30.0) / 10.0))
        assert "conversions" not in doc
        assert doc["plan"]["kind"] == "nmse_vs_bits"
        assert doc["build_id"].startswith("cfchain-")
        assert doc["config"]["derived"]["b_e"] == 1600
        assert doc["config"]["derived"]["b_l"] == [3] * 5
        # the plan's master_seed is the one seed: no copy beside it
        assert "seed" not in doc
        assert "backend" not in doc
        # no silent defaults and nothing else: every config field (with
        # the derived values) and every plan field, materialized
        assert set(doc["config"]) == {
            f.name for f in fields(NetworkConfig)} | {"derived"}
        assert set(doc["plan"]) == {f.name for f in fields(ExperimentPlan)}

    def test_manifest_with_older_copies_replays_identically(self, tmp_path):
        # older manifests carry the unit conversions the config's derived
        # values now hold, copies of the seed and the backend name beside
        # the config, and the per-AP bits and covariance-report size in it
        out = tmp_path / "r"
        assert main(["run", _write(tmp_path, SMALL_RUN), "--out",
                     str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        doc["conversions"] = {"p_db_to_watt": [-10.0, 0.1],
                              "noise_dbm_to_watt": [-85.0, 3.16e-12]}
        doc["config"].update(bits=[3] * 5, b_e=1600)
        doc.update(seed=9, backend="numpy")
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["run", str(old), "--out", str(tmp_path / "re")]) == 0
        assert (tmp_path / "re" / "nmse_vs_bits.csv").read_bytes() == (
            out / "nmse_vs_bits.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        path = _write(tmp_path, SMALL_RUN)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["run", path, "--out", str(out1), "--seed", "77"]) == 0
        assert main(["run", path, "--out", str(out2), "--seed", "78"]) == 0
        a = (out1 / "nmse_vs_bits.csv").read_text()
        b = (out2 / "nmse_vs_bits.csv").read_text()
        assert a != b

    def test_bitrate_preset_matches_module(self, tmp_path):
        from cfchain.metrics import fronthaul_bitrate
        out = tmp_path / "br"
        assert main(["preset", "bitrate", "--out", str(out)]) == 0
        rows = (out / "bitrate.csv").read_text().strip().splitlines()[1:]
        cfg = NetworkConfig()
        for row in rows:
            b_l, width, b_s, rate = row.split(",")
            ref_rate, ref_bs = fronthaul_bitrate(cfg, b_l=int(b_l))
            assert int(b_s) == ref_bs
            assert float(rate) == pytest.approx(ref_rate, rel=1e-9)

    def test_bitrate_runs_every_validated_tau_d(self, tmp_path, capsys):
        # tau_c = 0.3e-3 * 300e3 rounds to 89.99999999999999, and validate
        # allows tau_d = 90 within its slack: run must agree
        ini = _write(tmp_path, """
[network]
coherence_time_s = 0.3e-3
coherence_bw_hz = 300e3
tau_d = 90

[plan]
kind = bitrate_table
options = option1
""")
        assert main(["validate", ini]) == 0
        assert main(["run", ini, "--out", str(tmp_path / "br")]) == 0
        assert (tmp_path / "br" / "bitrate.csv").exists()

    def test_preset_override(self, tmp_path):
        out = tmp_path / "o"
        assert main(["preset", "bitrate", "--out", str(out),
                     "--override", "b_c=9"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["b_c"] == 9

    def test_preset_override_derives_like_run(self, tmp_path):
        # b_e is derived from b_c: the preset must derive it as run does
        ini = _write(tmp_path, """
[network]
b_c = 9

[plan]
kind = bitrate_table
bits_sweep = 1, 2, 3, 4, 5, 6, 7, 8
n_placements = 1
n_blocks = 1
n_samples = 1
options = option1
""")
        assert main(["run", ini, "--out", str(tmp_path / "run")]) == 0
        assert main(["preset", "bitrate", "--out", str(tmp_path / "pre"),
                     "--override", "b_c=9"]) == 0
        run_csv = (tmp_path / "run" / "bitrate.csv").read_bytes()
        assert (tmp_path / "pre" / "bitrate.csv").read_bytes() == run_csv
        doc = json.loads((tmp_path / "pre" / "manifest.json").read_text())
        assert doc["config"]["derived"]["b_e"] == 2 * 10 * 10 * 9

    def test_preset_override_of_L_resizes_bits(self, tmp_path):
        out = tmp_path / "l3"
        assert main(["preset", "bitrate", "--out", str(out),
                     "--override", "L=3"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["L"] == 3
        assert doc["config"]["derived"]["b_l"] == [3, 3, 3]

    @pytest.mark.parametrize("route,plan,args,want", [
        ("run", "", [], 1),
        ("run", "master_seed = 6", [], 6),
        ("run", "master_seed = 6", ["--seed", "7"], 7),
        ("run", "master_seed = 6",
         ["--seed", "7", "--override", "master_seed=3"], 3),
        ("preset", None, [], 1),
        ("preset", None, ["--seed", "7"], 7),
        ("preset(seed=)", None, 7, 7),
    ], ids=["default", "file_master_seed", "seed_flag_over_file",
            "override_master_seed_over_seed_flag", "preset_default",
            "preset_seed_flag", "preset_api"])
    def test_seed_precedence(self, tmp_path, route, plan, args, want):
        # highest first: an override of master_seed (--seed is one, placed
        # before the --override values), the file's master_seed, 1
        if route == "preset(seed=)":
            assert preset("bitrate", seed=args)[1].master_seed == want
            return
        argv = ["preset", "bitrate"] if route == "preset" else [
            "run", _write(tmp_path, f"[plan]\nkind = bitrate_table\n"
                          f"options = option1\n{plan}\n")]
        out = tmp_path / "out"
        assert main(argv + args + ["--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["plan"]["master_seed"] == want

    test_validate_bad_config_exit_code = _validate_exits_3("bad_config")
    test_validate_malformed_number_in_file = _validate_exits_3(
        "malformed_number_in_file")
    test_validate_malformed_number_override = _validate_exits_3(
        "malformed_number_override")
    test_validate_rejects_too_few_noise_samples = _validate_exits_3(
        "too_few_noise_samples")
    test_manifest_section_not_an_object_exits_3 = _validate_exits_3(
        "manifest_section_not_an_object")
    test_unreadable_config_file_exits_3 = _validate_exits_3(
        "unreadable_config_file")
    test_out_of_range_value_exits_3 = _validate_exits_3("out_of_range_value")

    def test_selftest_fast(self, capsys):
        # the selftest has one size; it runs in about 2 s
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_selftest_failure_exits_1(self, capsys, monkeypatch):
        # one failing check fails the run, and each check prints its line
        monkeypatch.setattr("cfchain.selftest.ALL_CHECKS", [
            lambda i=i: Check(f"check {i}", i != 2, f"detail {i}")
            for i in range(4)])
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1, out
        assert out.count("[PASS]") == 3, out
        assert "[FAIL] check 2: detail 2" in out, out

    def test_usage_error_exit_code(self):
        assert main([]) == 2
        assert main(["preset", "nope"]) == 2


@pytest.fixture(scope="module")
def fig2_report():
    """The seed-1 fig2 run's noise statistics, as the selftest checks."""
    cfg, plan = preset("fig2", seed=1)
    return run_experiment(plan, cfg).stat_report


class TestSelftestBounds:
    """A bound no run can meet fails exactly the check that holds it."""

    @pytest.mark.parametrize("bound,value", [("EIG_VS_DIAG_BOUND", 0.0),
                                             ("KS_MIN_SAMPLES", 10 ** 9)])
    def test_noise_bound(self, fig2_report, monkeypatch, bound, value):
        assert check_noise_statistics(fig2_report).ok
        monkeypatch.setattr(f"cfchain.selftest.{bound}", value)
        assert not check_noise_statistics(fig2_report).ok

    def test_oracle_bound(self, monkeypatch):
        monkeypatch.setattr("cfchain.selftest.ORACLE_BOUND", 0.0)
        assert not check_oracle_equivalence().ok
