"""Correctness checks on the CSV tables a workload pass writes.

Three kinds of check, each returning a list of failure messages:

* `range_failures`: invariants that hold for any seed (NMSE in (0, 1], BER
  in [0, 0.5], CDFs non-decreasing in [0, 1], positive noise variances).
* `reference_failures`: every value against the tables committed under
  `reference/`, which were written at the default seed. Values must agree
  to a relative `RTOL`; that admits round-off from a reordered sum but not
  a changed quantizer decision, which moves an NMSE or BER by far more.
* `identical`: two passes of one seed must write byte-identical tables,
  whatever the tracing or the worker count.
"""

from __future__ import annotations

import math
from pathlib import Path

RTOL = 1e-6
MIN_UNCLIPPED = 10_000  # validate_noise_statistics' own floor


def read_tables(out_dir: Path) -> dict[str, bytes]:
    """Every CSV under out_dir, keyed by its path relative to out_dir."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*.csv"))}


def _parse(data: bytes):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def _columns(header, rows):
    return {h: [row[i] for row in rows] for i, h in enumerate(header)}


def range_failures(name: str, data: bytes) -> list[str]:
    header, rows = _parse(data)
    if not rows:
        return [f"{name}: no rows"]
    cols = _columns(header, rows)
    bad = []

    def need(ok: bool, what: str):
        if not ok:
            bad.append(f"{name}: {what}")

    for h, col in cols.items():
        need(all(math.isfinite(v) for v in col), f"{h} not finite")
    base = name.rsplit("/", 1)[-1]
    for h, col in cols.items():
        if h.endswith("_nmse"):
            need(all(0.0 < v <= 1.0 for v in col), f"{h} outside (0, 1]")
        elif h.endswith("_ber"):
            need(all(0.0 <= v <= 0.5 for v in col), f"{h} outside [0, 0.5]")
        elif h.endswith("_hw"):
            need(all(v >= 0.0 for v in col), f"{h} negative")
    if base.startswith("noise_cdf_pair"):
        for h in ("cdf_re", "cdf_im", "cdf_uniform"):
            need(all(0.0 <= v <= 1.0 for v in cols[h]), f"{h} outside [0, 1]")
        for h in ("value", "cdf_re", "cdf_im", "cdf_uniform"):
            col = cols[h]
            need(all(a <= b for a, b in zip(col, col[1:])),
                 f"{h} decreasing")
    elif base == "noise_stats.csv":
        for h in ("ks_re", "ks_im", "corr_input"):
            need(all(0.0 <= v <= 1.0 for v in cols[h]), f"{h} outside [0, 1]")
        need(all(v >= MIN_UNCLIPPED for v in cols["n_unclipped"]),
             f"n_unclipped below {MIN_UNCLIPPED}")
        need(all(v >= 0.0 for v in cols["offdiag_ratio"]),
             "offdiag_ratio negative")
    elif base == "noise_cov.csv":
        for h in ("diagonal", "eigenvalue"):
            need(all(v > 0.0 for v in cols[h]), f"{h} not positive")
    return bad


def reference_failures(name: str, data: bytes, ref: bytes | None
                       ) -> list[str]:
    if ref is None:
        return [f"{name}: no reference table"]
    header, rows = _parse(data)
    ref_header, ref_rows = _parse(ref)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: shape or header differs from the reference"]
    bad = 0
    for row, ref_row in zip(rows, ref_rows):
        for v, w in zip(row, ref_row):
            if abs(v - w) > RTOL * max(abs(v), abs(w)):
                bad += 1
    return [f"{name}: {bad} values differ from the reference "
            f"by more than {RTOL:g} relative"] if bad else []


def identical(tables: dict[str, bytes], first: dict[str, bytes],
              label: str) -> list[str]:
    if tables.keys() != first.keys():
        return [f"{label}: wrote other tables than the first pass"]
    return [f"{label}: {name} differs from the first pass"
            for name in tables if tables[name] != first[name]]
