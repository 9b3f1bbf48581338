"""The benchmark's workloads: committed configs, correctness gates, drift scalars.

Each workload is one ``cplab`` subcommand on a committed config (see
``configs/``). Its gate reads only the artifacts the call wrote; its
scalars are the numbers whose drift from ``reference.json`` every run
reports as information.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIGS = Path(__file__).resolve().parent / "configs"

# The oracle verdict of the acceptance target: Linf_rel, centroid offset
# in voxel cells, and both symmetry witnesses relative to the voxel max.
ORACLE_LINF_REL_MAX = 2e-2
ORACLE_OFFSET_CELLS_MAX = 2.0
ORACLE_WITNESS_REL_MAX = 5e-3
MIN_HOMOTOPY_STEPS = 15
# The final field of a completed homotopy (continuation writes t_{t:.5f}).
FINAL_FIELD = Path("fields") / "t_1.00000.cpfield"
READBACK = "readback.cpvox"


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def oracle_row(art: Path) -> dict:
    return {k: float(v) for k, v in read_csv(art / "oracle_compare.csv")[0].items()}


def oracle_verdict(art: Path) -> dict:
    row = oracle_row(art)
    witness_max = ORACLE_WITNESS_REL_MAX * row["max_value"]
    return {
        "oracle_linf_rel": row["linf_rel"] <= ORACLE_LINF_REL_MAX,
        "oracle_offset": row["cp_offset_cells"] <= ORACLE_OFFSET_CELLS_MAX,
        "oracle_witnesses": (row["rotation_witness"] <= witness_max
                             and row["mirror_witness"] <= witness_max),
    }


def verification_passes(art: Path) -> dict:
    rows = read_csv(art / "verification.csv")
    return {"verification": bool(rows) and all(r["pass"] == "true" for r in rows)}


def _homotopy_checks(art: Path, call_dir: Path) -> dict:
    steps = read_csv(art / "continuation.csv")
    checks = {
        "reached_t1": float(steps[-1]["t"]) == 1.0,
        "min_steps": len(steps) - 1 >= MIN_HOMOTOPY_STEPS,
        "cp_count_one": all(int(s["cp_count"]) == 1 for s in steps),
    }
    checks.update(verification_passes(art))
    checks.update(oracle_verdict(art))
    return checks


def _verify_checks(art: Path, call_dir: Path) -> dict:
    return verification_passes(art)


def _oracle_checks(art: Path, call_dir: Path) -> dict:
    checks = oracle_verdict(art)
    checks["cpvox_roundtrip"] = ((art / "oracle.cpvox").read_bytes()
                                 == (call_dir / READBACK).read_bytes())
    return checks


def _homotopy_scalars(art: Path, cfg) -> dict:
    from cplab import fieldio, morse

    steps = read_csv(art / "continuation.csv")
    lam0 = float(steps[0]["lambda1"])
    a = cfg.build_domain().profile.a0  # radius of the t = 0 ball
    u, _ = fieldio.read_field(art / FINAL_FIELD)
    census = morse.find_critical_points(u)
    return {
        "lambda1_t0": lam0,
        "lambda1_t1": float(steps[-1]["lambda1"]),
        # Torsion has f_u = 0, so lambda1(t=0) is the Dirichlet eigenvalue
        # (pi/a)^2 of the 3-ball of radius a.
        "lambda1_ball_rel_err": abs(lam0 * a * a / math.pi ** 2 - 1.0),
        "oracle_linf_rel": oracle_row(art)["linf_rel"],
        "u_max": u.max_inside(),
        "census_z": census.points[0].z,
    }


def _verify_scalars(art: Path, cfg) -> dict:
    rows = {r["check"]: float(r["margin"]) for r in read_csv(art / "verification.csv")}
    return {f"margin.{name}": rows[name] for name in
            ("monotone_axial", "monotone_radial", "moving_plane", "derivative_residual")}


def _oracle_scalars(art: Path, cfg) -> dict:
    row = oracle_row(art)
    return {"oracle_linf_rel": row["linf_rel"], "voxel_max": row["max_value"],
            "cp_offset_cells": row["cp_offset_cells"]}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    checks: Callable[[Path, Path], dict]
    scalars: Callable[[Path, object], dict]
    readback: bool = False  # read oracle.cpvox back and write it again

    @property
    def config(self) -> Path:
        return CONFIGS / f"{self.name}.cfg"


WORKLOADS = {w.name: w for w in (
    Workload("homotopy-spheroid", "continue", _homotopy_checks, _homotopy_scalars),
    Workload("verify-gelfand", "verify", _verify_checks, _verify_scalars),
    Workload("oracle-spindle", "oracle3d", _oracle_checks, _oracle_scalars, readback=True),
)}


def _drop_column(data: bytes, column: str) -> bytes:
    lines = data.decode().splitlines()
    header = lines[0].split(",") if lines else []
    if column not in header:
        return data
    k = header.index(column)
    kept = [",".join(f for i, f in enumerate(line.split(",")) if i != k) for line in lines]
    return "\n".join(kept).encode()


def digest(art: Path) -> str:
    """SHA-256 over every artifact, CSV ``runtime_s`` columns excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in art.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = _drop_column(data, "runtime_s")
        h.update(path.relative_to(art).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def drift(scalars: dict, reference: dict) -> dict:
    """Absolute and relative difference of each scalar from its reference."""
    out = {}
    for name, ref in reference.items():
        if name not in scalars:
            continue
        d = scalars[name] - ref
        out[name] = {"value": scalars[name], "reference": ref, "abs": d,
                     "rel": d / abs(ref) if ref else None}
    return out

