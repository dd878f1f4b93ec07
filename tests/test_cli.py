import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cfchain.cli import main
from cfchain.config import ConfigError, ExperimentPlan, NetworkConfig, Option
from cfchain.presets import preset
from cfchain.runio import RETIRED_KEYS, build_config, parse_config

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_unknown_key_is_fatal(self, tmp_path):
        path = _write(tmp_path, "[network]\nL = 3\nnantennas = 4\n")
        with pytest.raises(ConfigError, match="nantennas"):
            parse_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = _write(tmp_path, "[netwrk]\nL = 3\n")
        with pytest.raises(ConfigError, match="netwrk"):
            parse_config(path)

    def test_bits_floor_error_names_invariant(self, tmp_path):
        path = _write(tmp_path, "[network]\nbits = 0\n")
        with pytest.raises(ConfigError, match="b_l >= 1"):
            parse_config(path)

    def test_alpha_domain_error_names_constraint(self, tmp_path):
        path = _write(tmp_path, "[network]\nalpha = 200\nbits = 1\n")
        with pytest.raises(ConfigError, match=r"alpha\^2 < 3\*4\^b"):
            parse_config(path)

    def test_alpha_checked_only_against_quantized_bit_widths(self):
        # nmse_vs_bits quantizes with bits_sweep, not bits
        build_config(dict(alpha=4.0, bits=1), dict(bits_sweep=(2, 3)))
        with pytest.raises(ConfigError, match=r"alpha=4.0, b=1"):
            build_config(dict(alpha=4.0, bits=2), dict(bits_sweep=(1, 2)))
        # a lossless-only plan quantizes nothing
        build_config(dict(alpha=200.0, bits=1),
                     dict(kind="ber_vs_power", options=("noquant",)))

    def test_retired_keys_are_dropped(self, tmp_path):
        path = _write(tmp_path,
                      "[network]\noption = noquant\ncarrier_freq_hz = 28e9\n")
        cfg, plan = parse_config(path, overrides=["option=option2"])
        assert (cfg, plan) == parse_config(None)
        assert not set(RETIRED_KEYS) & set(cfg.as_dict())

    def test_retired_option_names_a_noise_kinds_one_option(self):
        _, plan = build_config(dict(option="option3"), dict(kind="noise_cdf"))
        assert plan.options == (Option.OPTION3,)
        # an options list of one entry wins; sweeps keep their list
        _, plan = build_config(dict(option="option3"),
                               dict(kind="noise_cov", options=("option1",)))
        assert plan.options == (Option.OPTION1,)
        _, plan = build_config(dict(option="option3"), {})
        assert plan.options == ExperimentPlan.options

    def test_overrides(self, tmp_path):
        cfg, plan = parse_config(_write(tmp_path, ""),
                                 overrides=["K=12", "n_samples=5"])
        assert cfg.K == 12
        assert plan.n_samples == 5

    def test_integers_are_read_exactly(self):
        # 2**53 + 1 has no float64: a float round trip would give 2**53
        cfg, plan = parse_config(None, ["seed=9007199254740993"])
        assert plan.master_seed == 9007199254740993
        _, plan = parse_config(None, ["n_samples=1e3"])
        assert plan.n_samples == 1000
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(None, ["L=2.5"])

    def test_unknown_override(self, tmp_path):
        with pytest.raises(ConfigError, match="zeta"):
            parse_config(_write(tmp_path, ""), overrides=["zeta=1"])


SMALL_RUN = """
[network]
seed = 9

[plan]
kind = nmse_vs_bits
bits_sweep = 2, 3
n_placements = 4
n_blocks = 1
n_samples = 16
options = option1, option3, noquant
"""


class TestCliCommands:
    def test_validate_ok_writes_nothing(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL_RUN)
        before = set(os.listdir(tmp_path))
        assert main(["validate", path]) == 0
        assert set(os.listdir(tmp_path)) == before
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "[network]\nalpha = 4\n\n[plan]\nbits_sweep = 1, 2\n",
        "[network]\noption = noquant\nalpha = 200\nbits = 1\n\n"
        "[plan]\nkind = ber_vs_power\noptions = option1\n",
    ], ids=["bits_sweep", "retired_option"])
    def test_validate_checks_alpha_against_the_plan(self, tmp_path, capsys,
                                                     text):
        assert main(["validate", _write(tmp_path, text)]) == 3
        assert "alpha^2 < 3*4^b violated" in capsys.readouterr().err

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path, "[network]\nbits = 0\n")
        assert main(["validate", path]) == 3
        assert "b_l >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("[network]\nalpha = x\n", "alpha = 'x' is not a number"),
        ("[network]\nL = 2.5\n", "L = '2.5' is not an integer"),
        ("[plan]\nbits_sweep = 2, 3.5\n", "bits_sweep = '3.5' is not an"),
        # a seed that master_seed outranks is still typed
        ("[network]\nseed = x\n\n[plan]\nmaster_seed = 3\n",
         "seed = 'x' is not an integer"),
    ], ids=["float_key", "int_key", "int_list", "outranked_seed"])
    def test_validate_malformed_number_in_file(self, tmp_path, capsys, text,
                                               message):
        assert main(["validate", _write(tmp_path, text)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("L=abc", "L = 'abc' is not an integer"),
        ("L=2.5", "L = '2.5' is not an integer"),
        ("power_sweep_db=-2,y", "power_sweep_db = 'y' is not a number"),
        # a float key takes finite values only
        ("p_db=inf", "p_db = 'inf' is not a number"),
        ("noise_dbm=-inf", "noise_dbm = '-inf' is not a number"),
        ("rho=nan", "rho = 'nan' is not a number"),
        ("area_side=inf", "area_side = 'inf' is not a number"),
        ("bandwidth_hz=1e400", "bandwidth_hz = '1e400' is not a number"),
        ("power_sweep_db=-2,inf", "power_sweep_db = 'inf' is not a number"),
    ], ids=["not_a_number", "int_key", "float_list", "inf", "minus_inf",
            "nan", "area_side", "overflowing_text", "non_finite_list"])
    def test_validate_malformed_number_override(self, capsys, override,
                                                message):
        assert main(["validate", os.devnull, "--override", override]) == 3
        assert message in capsys.readouterr().err

    def test_validate_rejects_too_few_noise_samples(self, tmp_path, capsys):
        path = _write(tmp_path, "[plan]\nkind = noise_cdf\noptions = option1"
                      "\nn_samples = 2000\nn_placements = 1\nn_blocks = 1\n")
        assert main(["validate", path]) == 3
        assert ("noise_cdf needs n_samples * n_blocks * n_placements >= "
                "10000, got 2000") in capsys.readouterr().err

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

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        path = _write(tmp_path, SMALL_RUN)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        a = (out1 / "nmse_vs_bits.csv").read_bytes()
        b = (out2 / "nmse_vs_bits.csv").read_bytes()
        assert a == b

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
        assert "seed" not in doc and "seed" not in doc["config"]
        assert "backend" not in doc
        # no silent defaults: every config field and plan field materialized
        for f in fields(NetworkConfig):
            if f.init:
                assert f.name in doc["config"], f.name
        for f in fields(ExperimentPlan):
            assert f.name in doc["plan"], f.name
        assert not set(RETIRED_KEYS) & set(doc["config"])

    def test_manifest_with_retired_keys_replays_identically(self, tmp_path):
        # manifests written before the retired keys were deleted carry them,
        # and the unit conversions the config's derived values now hold
        out = tmp_path / "r"
        assert main(["run", _write(tmp_path, SMALL_RUN), "--out",
                     str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        doc["config"].update(option="option1", carrier_freq_hz=2e9)
        doc["conversions"] = {"p_db_to_watt": [-10.0, 0.1],
                              "noise_dbm_to_watt": [-85.0, 3.16e-12]}
        # and the copies of the seed, the backend name, the per-AP bits
        # and the covariance-report size they wrote
        doc["config"].update(seed=9, bits=[3] * 5, b_e=1600)
        doc.update(seed=9, backend="numpy")
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["run", str(old), "--out", str(tmp_path / "re")]) == 0
        assert (tmp_path / "re" / "nmse_vs_bits.csv").read_bytes() == (
            out / "nmse_vs_bits.csv").read_bytes()

    def test_noise_manifest_replays_its_retired_option(self, tmp_path):
        # before [plan] options chose it, a noise kind ran [network] option,
        # and its manifest listed all four options
        ini = _write(tmp_path, """
[plan]
kind = noise_cov
n_placements = 1
n_blocks = 1
n_samples = 12000
options = option3
""")
        out = tmp_path / "direct"
        assert main(["run", ini, "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        doc["config"]["option"] = "option3"
        doc["plan"]["options"] = ["option1", "option2", "option3", "noquant"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["run", str(old), "--out", str(tmp_path / "re")]) == 0
        assert main(["run", str(old), "--out", str(tmp_path / "ov"),
                     "--override", "options=option3"]) == 0
        want = (out / "noise_cov.csv").read_bytes()
        assert (tmp_path / "re" / "noise_cov.csv").read_bytes() == want
        assert (tmp_path / "ov" / "noise_cov.csv").read_bytes() == want

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

    @pytest.mark.parametrize("route,network,plan,args,want", [
        ("run", "", "", [], 1),
        ("run", "seed = 5", "", [], 5),
        ("run", "", "master_seed = 6", [], 6),
        ("run", "seed = 5", "master_seed = 6", [], 6),
        ("run", "seed = 5", "master_seed = 6", ["--override", "seed=7"], 7),
        ("run", "seed = 5", "master_seed = 6", ["--seed", "7"], 7),
        ("run", "seed = 5", "master_seed = 6",
         ["--seed", "7", "--override", "master_seed=3"], 3),
        ("run", "seed = 5", "master_seed = 6",
         ["--override", "master_seed=3", "--override", "seed=7"], 3),
        ("preset", None, None, [], 1),
        ("preset", None, None, ["--override", "seed=7"], 7),
        ("preset", None, None, ["--seed", "7"], 7),
        ("preset", None, None,
         ["--override", "seed=7", "--override", "master_seed=3"], 3),
        ("preset(seed=)", None, None, 7, 7),
    ], ids=["default", "file_seed", "file_master_seed",
            "file_master_seed_over_seed", "override_seed_over_file",
            "seed_flag_over_file", "override_master_seed_over_seed_flag",
            "override_master_seed_over_override_seed", "preset_default",
            "preset_override_seed", "preset_seed_flag",
            "preset_override_master_seed_over_seed", "preset_api"])
    def test_seed_precedence(self, tmp_path, route, network, plan, args,
                             want):
        # highest first: an override of master_seed, an override of seed
        # (or --seed), the file's master_seed, its seed, 1
        if route == "preset(seed=)":
            assert preset("bitrate", seed=args)[1].master_seed == want
            return
        argv = ["preset", "bitrate"] if route == "preset" else [
            "run", _write(tmp_path, f"[network]\n{network}\n[plan]\n"
                          f"kind = bitrate_table\noptions = option1\n"
                          f"{plan}\n")]
        out = tmp_path / "out"
        assert main(argv + args + ["--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["plan"]["master_seed"] == want

    @pytest.mark.parametrize("doc,section", [
        ({"config": None}, "config"), ({"plan": None}, "plan"),
        ({"config": [1]}, "config"),
    ], ids=["null_config", "null_plan", "list_config"])
    def test_manifest_section_not_an_object_exits_3(self, tmp_path, capsys,
                                                     doc, section):
        path = _write(tmp_path, json.dumps(doc), "manifest.json")
        assert main(["validate", path]) == 3
        err = capsys.readouterr().err
        assert f"manifest {section} is not a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("make", [
        lambda tmp: tmp / "missing.ini",
        lambda tmp: tmp,
        lambda tmp: tmp / "utf16.ini",
    ], ids=["missing", "directory", "undecodable"])
    def test_unreadable_config_file_exits_3(self, tmp_path, capsys, make):
        # a UTF-16 byte-order mark, FF FE, is not UTF-8
        (tmp_path / "utf16.ini").write_bytes(
            "[network]\nL = 3\n".encode("utf-16"))
        path = make(tmp_path)
        assert main(["validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config "
                              f"file {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("override,message", [
        # a power in watts that overflows or underflows names its key
        ("p_db=4000", "p_db = 4000 is out of range"),
        ("noise_dbm=4000", "noise_dbm = 4000 is out of range"),
        ("p_db=-4000", "p_db = -4000 is out of range"),
        # beyond 2^52 cells float64 cannot tell them apart
        ("bits=53", "bits values <= MAX_BITS = 52"),
        ("bits=600", "bits values <= MAX_BITS = 52"),
        ("bits_sweep=8,60,1000,1100", "bits_sweep values <= MAX_BITS = 52"),
    ], ids=["p_overflows", "sigma2_overflows", "p_underflows", "bits",
            "bits_overflowing_4_to_the_b", "bits_sweep"])
    def test_out_of_range_value_exits_3(self, capsys, override, message):
        assert main(["validate", os.devnull, "--override", override]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_selftest_fast(self, capsys):
        # the selftest has one size; it runs in about 2 s
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_runs_without_scipy(self, tmp_path):
        # the noise statistics and the selftest need numpy only
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from cfchain.cli import main\n"
            f"rc = main(['preset', 'fig2', '--out', {str(tmp_path)!r}, "
            "'--override', 'n_samples=20000'])\n"
            "sys.exit(rc or main(['selftest']))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "noise_stats.csv").exists()
        assert proc.stdout.count("[PASS]") == 4

    def test_usage_error_exit_code(self):
        assert main([]) == 2
        assert main(["preset", "nope"]) == 2
