"""One typing of config values: INI text, override text, a replayed
manifest and direct construction resolve every settable field alike, and
a mistyped value is a ConfigError naming its key and value."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from cfchain.cli import main
from cfchain.config import ConfigError, ExperimentPlan, NetworkConfig, Option
from cfchain.runio import RunManifest, parse_config

# One non-default value per settable field: (Python value, text). A field
# without an entry fails test_every_route_resolves_a_field_alike.
SAMPLES = {
    "L": (3, "3"),
    "N": (3, "3"),
    "K": (7, "7"),
    "p_db": (-12.5, "-12.5"),
    "noise_dbm": (-80.0, "-80"),
    "bits": ((2, 3, 4), "2, 3, 4"),
    "alpha": (2.5, "2.5"),
    "area_side": (400.0, "400"),
    "bandwidth_hz": (50e6, "50e6"),
    "coherence_bw_hz": (100e3, "100e3"),
    "coherence_time_s": (2e-3, "2e-3"),
    "tau_d": (150, "1.5e2"),
    "b_c": (6, "6"),
    "b_e": (1000, "1000"),
    "corr_model": ("exponential", "exponential"),
    "rho": (0.3, "0.3"),
    "d_min": (2.0, "2"),
    "kind": ("ber_vs_power", "ber_vs_power"),
    "bits_sweep": ((2, 3), "2, 3"),
    "power_sweep_db": ((-4.5, 0.0), "-4.5, 0"),
    "n_placements": (3, "3"),
    "n_blocks": (2, "2"),
    "n_samples": (1000, "1e3"),
    "options": ((Option.OPTION2, Option.NOQUANT), "option2, noquant"),
    "master_seed": (11, "11"),
}


def _settable(cls):
    return [f.name for f in fields(cls) if f.init]


SETTABLE = [(cls, key) for cls in (NetworkConfig, ExperimentPlan)
            for key in _settable(cls)]


@pytest.fixture(scope="module")
def routes(tmp_path_factory):
    """(config, plan) of the samples by each route into the program."""
    tmp = tmp_path_factory.mktemp("routes")

    def section(cls):
        return "".join(f"{key} = {SAMPLES[key][1]}\n"
                       for key in _settable(cls))

    ini = tmp / "all.ini"
    ini.write_text("[network]\n" + section(NetworkConfig)
                   + "[plan]\n" + section(ExperimentPlan))
    from_ini = parse_config(str(ini))
    manifest = tmp / "manifest.json"
    manifest.write_text(json.dumps(
        RunManifest.create(*from_ini, str(tmp)).as_dict()))
    return {
        "direct": tuple(cls(**{key: SAMPLES[key][0]
                               for key in _settable(cls)})
                        for cls in (NetworkConfig, ExperimentPlan)),
        "ini": from_ini,
        "override": parse_config(None, [
            f"{key}={SAMPLES[key][1]}" for _, key in SETTABLE]),
        "manifest": parse_config(str(manifest)),
    }


def test_the_settable_fields_are_the_sampled_ones():
    assert [key for _, key in SETTABLE] == list(SAMPLES)


@pytest.mark.parametrize("cls,key", SETTABLE,
                         ids=[key for _, key in SETTABLE])
def test_every_route_resolves_a_field_alike(routes, cls, key):
    value, _ = SAMPLES[key]
    assert getattr(cls(), key) != value, "the sample must not be a default"
    where = 0 if cls is NetworkConfig else 1
    # repr tells 3 from 3.0 and np.int64(3), which == does not
    got = {route: repr(getattr(objs[where], key))
           for route, objs in routes.items()}
    assert got == {route: repr(value) for route in routes}


def test_integers_stay_exact_and_take_integral_float_forms():
    assert ExperimentPlan(master_seed=2 ** 53 + 1).master_seed == 2 ** 53 + 1
    plan = ExperimentPlan(n_samples=1e3, n_blocks=np.int64(3),
                          bits_sweep=np.arange(1, 4))
    assert repr((plan.n_samples, plan.n_blocks, plan.bits_sweep)) == (
        "(1000, 3, (1, 2, 3))")
    assert repr(ExperimentPlan(power_sweep_db=[-2, 0]).power_sweep_db) == (
        "(-2.0, 0.0)")


def test_one_value_is_a_list_of_one():
    for bits in (2, [2]):
        cfg = NetworkConfig(bits=bits)
        assert (cfg.bits, cfg.b_l.tolist()) == ((2,), [2] * 5)
    plan = ExperimentPlan(kind="Noise_CDF ", options="option3",
                          n_samples=10_000, n_blocks=1, n_placements=1)
    assert (plan.kind, plan.options) == ("noise_cdf", (Option.OPTION3,))


@pytest.mark.parametrize("kw", [dict(K=12), dict(L=3), dict(b_c=9),
                                dict(noise_dbm=-80)],
                         ids=["K", "L", "b_c", "noise_dbm"])
def test_replace_derives_like_construction(kw):
    # derived values (report bits, per-AP bits, powers) follow the fields
    assert replace(NetworkConfig(), **kw).as_dict() == (
        NetworkConfig(**kw).as_dict())


def test_replace_types_like_construction():
    plan = replace(ExperimentPlan(), bits_sweep=(2.0, 3))
    assert repr(plan.bits_sweep) == "(2, 3)"
    with pytest.raises(ConfigError, match=r"n_placements = 2\.7 is not an"):
        replace(plan, n_placements=2.7)


@pytest.mark.parametrize("make,message", [
    (lambda: ExperimentPlan(bits_sweep=(1.5, 2)),
     "bits_sweep = 1.5 is not an integer"),
    (lambda: NetworkConfig(bits=(2.7, 3, 3, 3, 3)),
     "bits = 2.7 is not an integer"),
    (lambda: NetworkConfig(L="5"), "L = '5' is not an integer"),
    (lambda: NetworkConfig(K=True), "K = True is not an integer"),
    (lambda: NetworkConfig(p_db="-10"), "p_db = '-10' is not a number"),
    (lambda: NetworkConfig(rho=float("nan")), "rho = nan is not a number"),
    (lambda: ExperimentPlan(power_sweep_db=(0, -float("inf"))),
     "power_sweep_db = -inf is not a number"),
    (lambda: NetworkConfig(b_e=[1]), r"b_e = \[1\] is not an integer"),
    (lambda: NetworkConfig(corr_model=1), "corr_model = 1 is not a string"),
    (lambda: ExperimentPlan(options=("option4",)),
     "options = 'option4' is not one of"),
], ids=["bits_sweep", "bits", "str_for_int", "bool_for_int", "str_for_float",
        "nan", "minus_inf", "list_for_int", "number_for_name",
        "unknown_option"])
def test_direct_construction_rejects_mistyped_values(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


@pytest.mark.parametrize("section,key,value,message", [
    ("config", "L", "5", "L = '5' is not an integer"),
    ("plan", "bits_sweep", [1.5, 2], "bits_sweep = 1.5 is not an integer"),
    ("plan", "n_placements", 2.7, "n_placements = 2.7 is not an integer"),
], ids=["L", "bits_sweep", "n_placements"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_mistyped_manifest_value_exits_3(tmp_path, capsys, command, section,
                                         key, value, message):
    doc = RunManifest.create(*parse_config(None), str(tmp_path)).as_dict()
    doc[section][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = [command, str(path)]
    assert main(args + (["--out", str(out)] if command == "run" else [])) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_malformed_manifest_exits_3(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{"config": {"L": 5,}}')
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config parse error")
    assert "Traceback" not in err


class TestConfigValidation:
    def test_k_less_than_n_warns(self):
        with pytest.warns(UserWarning):
            NetworkConfig(N=8, K=4, bits=(3,) * 5)

    def test_bits_length(self):
        with pytest.raises(ConfigError, match="length"):
            NetworkConfig(bits=(3, 3))

    def test_bits_floor(self):
        with pytest.raises(ConfigError, match="b_l >= 1"):
            NetworkConfig(bits=0)

    def test_tau_d_budget(self):
        with pytest.raises(ConfigError, match="tau_d"):
            NetworkConfig(tau_d=10_000)
