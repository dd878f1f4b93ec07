"""Config-file ingestion and result serialization.

Config files are INI documents with [network] and [plan] sections whose
keys mirror the NetworkConfig / ExperimentPlan field names. Unknown keys
are hard errors (typo protection); RETIRED_KEYS are read and dropped.
Files, presets and CLI overrides all resolve through `build_config`,
which also checks config and plan together. `emit_results` writes the
CSV tables a result carries, then a run manifest (JSON); feeding that
manifest back to `run` reproduces the run bit-exactly because it
materializes every resolved value. The manifest records the config, plan,
seed, version and backend once, at its top level; `result_metadata` holds
only what the run measured.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__ as _version
from . import kernels
from .config import (NOISE_KINDS, ConfigError, ExperimentPlan, NetworkConfig,
                     _check_alpha_bits)

# [network] keys earlier versions wrote, which no run reads: accepted from
# files, manifests and overrides so that these keep replaying, then dropped
RETIRED_KEYS = ("option", "carrier_freq_hz")
_NETWORK_FIELDS = {f.name for f in fields(NetworkConfig) if f.init} | set(
    RETIRED_KEYS)
_PLAN_FIELDS = {f.name for f in fields(ExperimentPlan)}

_INT_KEYS = {"L", "N", "K", "tau_d", "b_c", "b_e", "seed", "n_placements",
             "n_blocks", "n_samples", "master_seed"}
_FLOAT_KEYS = {"p_db", "noise_dbm", "alpha", "area_side", "bandwidth_hz",
               "coherence_bw_hz", "coherence_time_s", "rho", "d_min"}
_LIST_KEYS = {"bits", "bits_sweep", "power_sweep_db", "options"}


def _number(key: str, text: str, kind):
    """text as a kind, int or float. An int is read exactly; it may also
    be written in a float form such as "1e3"."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        x = float(text)
    except ValueError:
        x = None
    if x is None or (kind is int and not x.is_integer()):
        raise ConfigError(f"{key} = {text!r} is not "
                          + ("an integer" if kind is int else "a number"))
    return kind(x)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _LIST_KEYS:
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if key == "options":
            return tuple(items)
        kind = float if key == "power_sweep_db" else int
        vals = tuple(_number(key, x, kind) for x in items)
        return vals[0] if key == "bits" and len(vals) == 1 else vals
    if key in _INT_KEYS:
        return _number(key, raw, int)
    if key in _FLOAT_KEYS:
        return _number(key, raw, float)
    return raw


def parse_overrides(overrides: list[str] | None) -> tuple[dict, dict]:
    """Split repeatable "key=value" strings into network and plan kwargs.

    Keys are matched against the network section first, then the plan. A
    seed override also moves master_seed, unless master_seed is overridden
    too.
    """
    net_kwargs: dict = {}
    plan_kwargs: dict = {}
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        key, raw = ov.split("=", 1)
        key = key.strip()
        if key in _NETWORK_FIELDS:
            net_kwargs[key] = _parse_value(key, raw)
        elif key in _PLAN_FIELDS:
            plan_kwargs[key] = _parse_value(key, raw)
        else:
            raise ConfigError(f"unknown override key {key!r}")
    if "seed" in net_kwargs:
        plan_kwargs.setdefault("master_seed", net_kwargs["seed"])
    return net_kwargs, plan_kwargs


def build_config(net_kwargs: dict, plan_kwargs: dict,
                 overrides: list[str] | None = None
                 ) -> tuple[NetworkConfig, ExperimentPlan]:
    """Build (NetworkConfig, ExperimentPlan) from keyword sets, with
    overrides (see parse_overrides) on top; derived defaults such as b_e
    follow the final values. master_seed defaults to the network seed.

    RETIRED_KEYS are dropped. A retired `option` still names the option of
    a noise kind whose options list has more than one entry: that is the
    one option such a file or manifest ran before [plan] options chose it.
    Config and plan are checked together: every bit width the plan
    quantizes with must satisfy alpha^2 < 3*4^b.
    """
    net_ov, plan_ov = parse_overrides(overrides)
    net = {**net_kwargs, **net_ov}
    retired = {key: net.pop(key) for key in RETIRED_KEYS if key in net}
    cfg = NetworkConfig(**net)
    plan_kw = {"master_seed": cfg.seed, **plan_kwargs, **plan_ov}
    kind = str(plan_kw.get("kind", ExperimentPlan.kind)).strip().lower()
    if ("option" in retired and kind in NOISE_KINDS
            and len(plan_kw.get("options", ExperimentPlan.options)) > 1):
        plan_kw["options"] = (retired["option"],)
    plan = ExperimentPlan(**plan_kw)
    if any(o.quantized for o in plan.options):
        bits = plan.bits_sweep if plan.kind == "nmse_vs_bits" else cfg.bits
        _check_alpha_bits(cfg.alpha, min(bits))
    return cfg, plan


def parse_config(path: str | None = None, overrides: list[str] | None = None
                 ) -> tuple[NetworkConfig, ExperimentPlan]:
    """Load (NetworkConfig, ExperimentPlan) from an INI file or manifest.

    path=None or an empty file yields the full default scenario. overrides
    (see parse_overrides) are applied after the file.
    """
    net_kwargs: dict = {}
    plan_kwargs: dict = {}

    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(1)
        if head == "{":
            net_kwargs, plan_kwargs = _from_manifest(path)
        else:
            net_kwargs, plan_kwargs = _from_ini(path)
    return build_config(net_kwargs, plan_kwargs, overrides)


def _from_ini(path: str):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e
    net_kwargs: dict = {}
    plan_kwargs: dict = {}
    for section in parser.sections():
        if section not in ("network", "plan"):
            raise ConfigError(f"unknown section [{section}] in {path}; "
                              "expected [network] and/or [plan]")
        allowed = _NETWORK_FIELDS if section == "network" else _PLAN_FIELDS
        target = net_kwargs if section == "network" else plan_kwargs
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] of {path}")
            target[key] = _parse_value(key, raw)
    return net_kwargs, plan_kwargs


def _from_manifest(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg_doc = dict(doc.get("config", {}))
    cfg_doc.pop("derived", None)
    plan_doc = dict(doc.get("plan", {}))
    unknown = set(cfg_doc) - _NETWORK_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys in manifest: {sorted(unknown)}")
    unknown = set(plan_doc) - _PLAN_FIELDS
    if unknown:
        raise ConfigError(f"unknown plan keys in manifest: {sorted(unknown)}")
    return cfg_doc, plan_doc


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, bit for bit."""

    config: dict
    plan: dict
    seed: int
    out_dir: str
    version: str
    build_id: str
    backend: str
    started_utc: str

    @classmethod
    def create(cls, cfg: NetworkConfig, plan: ExperimentPlan,
               out_dir: str) -> "RunManifest":
        cfg_doc = cfg.as_dict()
        digest = hashlib.sha256(
            json.dumps({"config": cfg_doc, "plan": plan.as_dict()},
                       sort_keys=True).encode()).hexdigest()[:12]
        return cls(
            config=cfg_doc,
            plan=plan.as_dict(),
            seed=plan.master_seed,
            out_dir=str(out_dir),
            version=_version,
            build_id=f"cfchain-{_version}+cfg.{digest}",
            backend=kernels.active_backend(),
            started_utc=datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.9g}"


def _write_csv(path, header, rows):
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python floats format faster than numpy's
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_results(result, manifest: RunManifest, out_dir: str) -> list[str]:
    """Write the result's CSV tables, then the JSON manifest with the
    result's metadata; returns the written paths in that order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in result.tables.items():
        written.append(os.path.join(out_dir, name))
        _write_csv(written[-1], header, rows)
    doc = manifest.as_dict()
    doc["result_metadata"] = result.metadata
    written.append(os.path.join(out_dir, "manifest.json"))
    with open(written[-1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written
