"""Batch front end: experiment orchestration and artifact emission.

    cplab <subcommand> --config <path> [--out <dir>] [--seed <int>] [--quiet]

Subcommands: solve, eigen, census, verify, continue, oracle3d, report.
Each writes its artifacts into the output directory and exits 0 iff all
executed checks pass; module errors exit nonzero with a message on
stderr. `verify --field <file>` checks a stored CPFIELD (e.g. an
injected field) instead of solving, on the grid that the config's domain
gives the file's header. `continue` runs the homotopy, then on its t = 1
field the `verify` step and, at n = 3, the `oracle3d` step. CPL_THREADS
caps the threads of the uniqueness multi-start.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import fieldio, oracle3d
from .config import RunConfig, parse_config
from .continuation import run_homotopy
from .domain import build_grid
from .errors import ConfigError, CplabError
from .morse import find_critical_points
from .solver import Field, newton_solve
from .stability import smallest_eigenvalue
from .verify import run_verification

SUBCOMMANDS = ("solve", "eigen", "census", "verify", "continue", "oracle3d", "report")


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _problem(cfg: RunConfig):
    """The configured domain, nonlinearity and grid shape: (d, f, nr, nz)."""
    d = cfg.build_domain()
    return (d, cfg.build_nonlinearity(), *cfg.grid_shape(d))


def _solve_from_config(cfg: RunConfig, unconverged: str | None = None):
    """The configured problem solved from zero; when `unconverged` is given, a
    solve that does not converge raises a CplabError with that message."""
    d, f, nr, nz = _problem(cfg)
    grid = build_grid(d, nr, nz)
    u, rep = newton_solve(grid, d.n, f, Field.zeros(grid, d.n))
    if unconverged is not None and not rep.converged:
        raise CplabError(unconverged)
    return d, f, u, rep


def _verify_step(out: Path, u, f, cfg: RunConfig, seed: int, with_uniqueness=True):
    """The verification report on u, written to verification.csv."""
    report = run_verification(u, f, seeds=cfg.get("run", "uniqueness_seeds"), seed=seed,
                              with_uniqueness=with_uniqueness)
    (out / "verification.csv").write_text(fieldio.verification_csv(report))
    return report


def _oracle_step(out: Path, d, f, u, cfg: RunConfig, keep_voxels=False):
    """The voxel oracle's verdict on u, written to oracle_compare.csv: (row, agreement)."""
    vox = oracle3d.solve_3d(d, f, cfg.get("oracle", "N"))
    if keep_voxels:
        fieldio.write_voxels(vox, out / "oracle.cpvox")
    oc, ok = oracle3d.oracle_verdict(vox, u)
    (out / "oracle_compare.csv").write_text(fieldio.oracle_csv(oc))
    return oc, ok


def run(subcommand: str, cfg: RunConfig, out: Path, seed: int,
        field_path: str | None = None, quiet: bool = False) -> int:
    """Execute one subcommand; returns the process exit status."""
    out.mkdir(parents=True, exist_ok=True)

    if subcommand == "solve":
        d, f, u, rep = _solve_from_config(cfg)
        fieldio.write_field(u, out / "u.cpfield")
        (out / "solve_report.csv").write_text(fieldio.solve_report_csv(rep))
        ok = rep.converged and (rep.min_value > 0.0 if f.positive_at_zero else True)
        _say(quiet, f"solve: converged={rep.converged} iterations="
                    f"{rep.newton_iterations} residual={rep.final_residual:.3e} "
                    f"min={rep.min_value:.3e}")
        return 0 if ok else 1

    if subcommand == "eigen":
        d, f, u, rep = _solve_from_config(cfg, "eigen: the base solve did not converge")
        report = smallest_eigenvalue(u, f)
        fieldio.write_field(report.eigenfield, out / "eigenfield.cpfield",
                            comments=[f"# eigen lambda1={fieldio.fmt(report.lambda1)}"])
        (out / "eigen_report.csv").write_text(fieldio.stability_csv(report))
        _say(quiet, f"eigen: lambda1={report.lambda1:.6g} residual="
                    f"{report.residual:.2e} stable={report.stable}")
        return 0 if report.stable else 1

    if subcommand == "census":
        d, f, u, rep = _solve_from_config(cfg, "census: the base solve did not converge")
        census = find_critical_points(u)
        (out / "census.csv").write_text(fieldio.census_csv(census, d.n))
        ok = census.unique_axis_max
        _say(quiet, f"census: {len(census.points)} point(s), "
                    f"unique nondegenerate max on the axis: {ok}")
        return 0 if ok else 1

    if subcommand == "verify":
        if field_path:
            d, f, _, _ = _problem(cfg)
            u = fieldio.on_domain(fieldio.read_field(field_path)[0], d)
        else:
            d, f, u, rep = _solve_from_config(cfg, "verify: the base solve did not converge")
        report = _verify_step(out, u, f, cfg, seed, with_uniqueness=not field_path)
        _say(quiet, str(report))
        return 0 if report.passed else 1

    if subcommand == "continue":
        d, f = cfg.build_domain(), cfg.build_nonlinearity()
        nr, nz = cfg.grid_shape(d, d.homotopy_box)  # the box of every homotopy grid
        sink = None
        if cfg.get("output", "emit_fields"):
            fd = out / "fields"
            fd.mkdir(parents=True, exist_ok=True)

            def sink(t, field):
                fieldio.write_field(field, fd / f"t_{t:.5f}.cpfield")

        rec = run_homotopy(d, f, nr, nz, t_step0=cfg.get("continuation", "t_step0"),
                           field_sink=sink)
        (out / "continuation.csv").write_text(fieldio.continuation_csv(rec))
        ok = rec.completed
        if ok:
            ok = _verify_step(out, rec.field, f, cfg, seed).passed
            if d.n == 3:
                ok = _oracle_step(out, d, f, rec.field, cfg)[1] and ok
        _say(quiet, f"continue: reached t={rec.final_t:g} in {len(rec.steps)} steps, "
                    f"completed={ok}, first_failure_t={rec.first_failure_t}")
        return 0 if ok else 1

    if subcommand == "oracle3d":
        if cfg.get("domain", "n") != 3:
            raise CplabError("oracle3d requires n = 3")
        d, f, u, rep = _solve_from_config(cfg, "oracle3d: the meridian solve did not converge")
        oc, ok = _oracle_step(out, d, f, u, cfg, keep_voxels=True)
        _say(quiet, f"oracle3d: linf_rel={oc['linf_rel']:.3e} "
                    f"offset={oc['cp_offset_cells']:.2f} cells witnesses="
                    f"({oc['rotation_witness']:.2e}, {oc['mirror_witness']:.2e})")
        return 0 if ok else 1

    if subcommand == "report":
        return _report(out, quiet)

    raise ConfigError(f"unknown subcommand {subcommand!r}")


def _report(out: Path, quiet: bool) -> int:
    """Aggregate prior artifacts into a summary table and heatmap data."""
    rows = []
    for name in ("solve_report", "eigen_report", "census", "verification",
                 "continuation", "oracle_compare"):
        path = out / f"{name}.csv"
        if not path.exists():
            continue
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            continue
        header = lines[0].split(",")
        if name in ("verification", "continuation"):
            for line in lines[1:]:
                vals = line.split(",")
                tag = vals[0]
                for key, val in zip(header[1:], vals[1:]):
                    rows.append((name, f"{tag}.{key}", val))
        elif name == "census":
            for k, line in enumerate(lines[1:]):
                for key, val in zip(header, line.split(",")):
                    rows.append((name, f"point{k}.{key}", val))
        else:
            vals = lines[1].split(",")
            for key, val in zip(header, vals):
                rows.append((name, key, val))

    heatmap = None
    upath = out / "u.cpfield"
    if upath.exists():
        field, _ = fieldio.read_field(upath)
        heatmap = fieldio.heatmap_csv(field)

    if not rows and heatmap is None:
        raise CplabError("nothing to aggregate: no artifacts found in "
                         f"{out} (run a subcommand first)")

    summary = "source,key,value\n" + "".join(f"{s},{k},{v}\n" for s, k, v in rows)
    (out / "summary.csv").write_text(summary)
    if heatmap is not None:
        (out / "heatmap.csv").write_text(heatmap)
    if not quiet:
        width = max((len(k) for _, k, _ in rows), default=10)
        for s, k, v in rows:
            print(f"{s:16s} {k:{width}s} {v}")
        if heatmap is not None:
            print(f"heatmap data written to {out / 'heatmap.csv'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cplab",
        description="Critical point laboratory for stable solutions of "
                    "semilinear elliptic problems on rotationally symmetric domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "report"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        if name == "verify":
            p.add_argument("--field", default=None,
                           help="check a stored CPFIELD instead of solving")

    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(args.config) if args.config is not None else RunConfig()
        out = Path(args.out) if args.out else Path(cfg.get("output", "directory"))
        seed = args.seed if args.seed is not None else cfg.get("run", "seed")
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        return run(args.command, cfg, out, seed,
                   field_path=getattr(args, "field", None), quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
