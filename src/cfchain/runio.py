"""Config-file ingestion and result serialization.

Config files are INI documents with [network] and [plan] sections whose
keys mirror the NetworkConfig / ExperimentPlan field names. Unknown keys
are hard errors (typo protection). A run manifest (JSON) is written next
to every result; feeding that manifest back to `run` reproduces the run
bit-exactly because it materializes every resolved value.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import os
from dataclasses import dataclass, fields

from . import __version__ as _version
from . import kernels
from .config import ConfigError, ExperimentPlan, NetworkConfig, Option

_NETWORK_FIELDS = {f.name for f in fields(NetworkConfig) if f.init}
_PLAN_FIELDS = {"kind", "bits_sweep", "power_sweep_db", "n_placements",
                "n_blocks", "n_samples", "options", "master_seed"}

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

    net_ov, plan_ov = parse_overrides(overrides)
    net_kwargs.update(net_ov)
    plan_kwargs.update(plan_ov)
    cfg = NetworkConfig(**net_kwargs)
    plan_kwargs.setdefault("master_seed", cfg.seed)
    plan = ExperimentPlan(**plan_kwargs)
    return cfg, plan


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
    if "bits" in cfg_doc and isinstance(cfg_doc["bits"], list):
        cfg_doc["bits"] = tuple(cfg_doc["bits"])
    for k in ("bits_sweep", "power_sweep_db", "options"):
        if k in plan_doc and isinstance(plan_doc[k], list):
            plan_doc[k] = tuple(plan_doc[k])
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
        return {
            "config": self.config,
            "plan": self.plan,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "version": self.version,
            "build_id": self.build_id,
            "backend": self.backend,
            "started_utc": self.started_utc,
            "conversions": self.conversions,
        }


def _fmt(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.9g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_results(result, manifest: RunManifest, out_dir: str) -> list[str]:
    """Write metric CSVs plus the JSON manifest; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def out(name):
        p = os.path.join(out_dir, name)
        written.append(p)
        return p

    if result.kind in ("nmse_vs_bits", "ber_vs_power"):
        header, rows = result.table()
        _write_csv(out(f"{result.kind}.csv"), header, rows)
    elif result.kind == "noise_cdf":
        rep = result.extra["stat_report"]
        for i, curve in result.extra["cdf_curves"].items():
            _write_csv(out(f"noise_cdf_pair{i}.csv"),
                       ["value", "cdf_re", "cdf_im", "cdf_uniform"],
                       curve.tolist())
        _write_csv(out("noise_stats.csv"),
                   ["pair", "n_unclipped", "ks_re", "ks_im", "corr_input",
                    "offdiag_ratio", "eig_vs_diag_rel"],
                   [[row["pair"], row["n_unclipped"], row["ks_re"],
                     row["ks_im"], row["corr_input"], row["offdiag_ratio"],
                     row["eig_vs_diag_rel"]] for row in rep.rows()])
    elif result.kind == "noise_cov":
        _write_csv(out("noise_cov.csv"),
                   ["index", "diagonal", "eigenvalue"],
                   result.extra["cov_rows"].tolist())
    elif result.kind == "bitrate_table":
        _write_csv(out("bitrate.csv"),
                   ["b_l", "multiplier_width", "b_s", "bitrate_bits_per_s"],
                   result.extra["bitrate_rows"])
    else:  # pragma: no cover - guarded by plan validation
        raise ValueError(f"cannot emit kind {result.kind!r}")

    doc = manifest.as_dict()
    doc["result_metadata"] = _jsonable(result.metadata)
    with open(out(os.path.join("manifest.json")), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Option):
        return obj.value
    return obj
