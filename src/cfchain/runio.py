"""Config-file ingestion and result serialization.

Config files are INI documents with [network] and [plan] sections whose
keys mirror the NetworkConfig / ExperimentPlan field names. Unknown keys
are hard errors (typo protection). Files, presets and CLI overrides all
resolve through `build_config`. `emit_results` writes the CSV tables a
result carries, then a run manifest (JSON); feeding that manifest back to
`run` reproduces the run bit-exactly because it materializes every
resolved value. The manifest records the config, plan, seed, version and
backend once, at its top level; `result_metadata` holds only what the run
measured.
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
from .config import ConfigError, ExperimentPlan, NetworkConfig

_NETWORK_FIELDS = {f.name for f in fields(NetworkConfig) if f.init}
_PLAN_FIELDS = {f.name for f in fields(ExperimentPlan)}

_INT_KEYS = {"L", "N", "K", "tau_d", "b_c", "b_e", "seed", "n_placements",
             "n_blocks", "n_samples", "master_seed"}
_FLOAT_KEYS = {"p_db", "noise_dbm", "alpha", "area_side", "bandwidth_hz",
               "coherence_bw_hz", "coherence_time_s", "rho",
               "carrier_freq_hz", "d_min"}
_LIST_KEYS = {"bits", "bits_sweep", "power_sweep_db", "options"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _LIST_KEYS:
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if key == "options":
            return tuple(items)
        if key == "power_sweep_db":
            return tuple(float(x) for x in items)
        vals = tuple(int(float(x)) for x in items)
        return vals[0] if key == "bits" and len(vals) == 1 else vals
    if key in _INT_KEYS:
        return int(float(raw))
    if key in _FLOAT_KEYS:
        return float(raw)
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
    """
    net_ov, plan_ov = parse_overrides(overrides)
    cfg = NetworkConfig(**{**net_kwargs, **net_ov})
    plan = ExperimentPlan(**{"master_seed": cfg.seed, **plan_kwargs,
                             **plan_ov})
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
    conversions: dict

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
            conversions={
                "p_db_to_watt": [cfg.p_db, cfg.p],
                "noise_dbm_to_watt": [cfg.noise_dbm, cfg.sigma2],
            },
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
