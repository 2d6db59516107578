"""Batch command-line front end.

Subcommands:

    evaluate        score one design: mass, workspace radius, stiffness
                    indices, dexterity, constraint table -> JSON report
    optimize        run the genetic algorithm -> pareto.csv, history.csv,
                    fronts_by_architecture.csv, run.json
    sweep           re-emit one architecture's front as a plot-ready CSV
    print-defaults  dump the fully documented default configuration

Exit codes: 0 success, 2 config/usage error, 3 infeasible single design,
4 empty archive after the full budget, 5 empty requested front.
All CSV output uses LF line endings, '.' decimals and no trailing
separators; reruns with identical config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import platform
import sys

import numpy as np

from . import moga
from .errors import ConfigError, InvalidValue, PpmError
from .model import SHORT_NAMES, Architecture, DesignVector, mass, validate
from .performance import constraints_batch
from .runconfig import RunConfig, default_config_yaml, load_config
from .workspace import WorkspaceSpec, grid_array, max_regular_workspace_detail

_DESIGN_KEYS = ("d", *SHORT_NAMES)
PARETO_HEADER = [*_DESIGN_KEYS, "mass_kg", "R_w_m", "L_c_m", "seed"]
SWEEP_HEADER = ["R_w_m", *SHORT_NAMES]

#: Provenance note embedded in every optimize run manifest.
OPTIMIZER_NOTE = ("reconstructed MOGA: roulette over directional crossover "
                  "0.5 / selection-copy 0.05 / bit mutation 0.1 / one-point "
                  "crossover 0.35, feasibility-first binary tournament, "
                  "elitist non-dominated archive")

#: The initial-population sampler, named in every optimize run manifest.
DOE_NOTE = (f"sobol: Joe-Kuo directions, LMS+shift scramble, "
            f"{moga.SOBOL_BITS} bits, numpy default_rng(seed)")


def _num(v: float) -> str:
    """Deterministic shortest-round-trip decimal form."""
    return repr(float(v))


def parse_design(text: str) -> DesignVector:
    """Parse 'd=1,R=1.412,r=0.319,L_b=0.62,r_j=0.026,r_p=0.023'."""
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError("design", f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _DESIGN_KEYS:
            raise ConfigError(f"design.{key}", "unknown design variable")
        if key in fields:
            raise ConfigError(f"design.{key}", "repeated design variable")
        try:
            fields[key] = float(value)
        except ValueError:
            fields[key] = math.nan
        if not math.isfinite(fields[key]):
            raise ConfigError(f"design.{key}",
                              f"bad number {value!r}, expected a finite one")
    missing = [k for k in _DESIGN_KEYS if k not in fields]
    if missing:
        raise ConfigError(f"design.{missing[0]}", "missing design variable")
    if fields["d"] not in (1.0, 2.0, 3.0):
        raise ConfigError("design.d", "architecture must be 1, 2 or 3")
    arch = Architecture(int(fields["d"]))
    return DesignVector(arch, *(fields[k] for k in SHORT_NAMES))


def _design_row(design: DesignVector) -> dict:
    return dict(zip(_DESIGN_KEYS, design.as_tuple()))


def cmd_evaluate(cfg: RunConfig, design: DesignVector, out_path: str) -> int:
    """Write the single-design evaluation report; 0 feasible, 3 not."""
    doc: dict = {
        "design": _design_row(design),
        "working_mode": [b.name for b in cfg.ctx.mode],
        "stiffness_thresholds": dataclasses.asdict(cfg.ctx.limits),
        "dexterity_threshold": cfg.ctx.dexterity.threshold,
        "mass_kg": mass(design, cfg.ctx.material),
    }
    feasible = False
    try:
        validate(design, cfg.bounds)
    except PpmError as exc:
        doc["error"] = str(exc)
    else:
        doc["error"] = None
        res = max_regular_workspace_detail(design, cfg.grid, cfg.ctx,
                                           cfg.bisection_tol, cfg.center,
                                           cfg.delta_phi)
        feasible = res.radius > 0.0
        doc["max_workspace_radius_m"] = res.radius
        doc["characteristic_length_m"] = (None if math.isnan(res.characteristic_length)
                                          else res.characteristic_length)
        # the search scored HOME_POSE in its radius-0 batch, with the same l_c
        doc["home"] = {
            "constraints": dataclasses.asdict(res.home),
            "stiffness_indices": {"k_xy": res.home.k_xy, "k_z": res.home.k_z,
                                  "k_phiz": res.home.k_phiz},
        }
        # the full grid at R_w, with the search's l_c
        at_r_w = WorkspaceSpec(res.radius, cfg.center, cfg.delta_phi)
        grid_res = constraints_batch(design, grid_array(at_r_w, cfg.grid),
                                     cfg.ctx, l_c=res.characteristic_length)
        doc["workspace"] = {
            "feasible": feasible,
            "min_inverse_condition": float(grid_res.kinv.min()),
            "min_k_xy": float(grid_res.kxy.min()),
            "min_k_z": float(grid_res.kz.min()),
            "min_k_phiz": float(grid_res.kphiz.min()),
            "limiting_pose": dataclasses.asdict(res.limiting_pose),
            "limiting_constraints": dataclasses.asdict(res.limiting_report),
        }
    doc["feasible"] = feasible
    _write_text(out_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out_path}"
          + ("" if feasible else " (design infeasible)"))
    return 0 if feasible else 3


def _make_dir(path: str):
    """Create the output directory path, parents included ("" is the
    working directory)."""
    if not path:
        return
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(path, f"cannot create output directory: {exc}")


def _write_text(path: str, content: str):
    _make_dir(os.path.dirname(path))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(path, f"cannot write output: {exc}")


def _pareto_rows(entries, seed: int) -> list[list[str]]:
    rows = []
    for e in entries:
        d, *x = e.design.as_tuple()
        rows.append([str(d), *map(_num, x), _num(e.mass), _num(e.r_w),
                     _num(e.characteristic_length), str(seed)])
    return rows


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    """Run the GA and export the archive, history and per-arch fronts."""
    def progress(stats):
        print(f"generation {stats.generation:4d}: archive hypervolume "
              f"{stats.hypervolume:.6g}, {stats.n_feasible} feasible",
              file=sys.stderr)

    _make_dir(out_dir)      # an unusable --out fails before the GA runs
    result = moga.evolve(cfg.moga, cfg.bounds, cfg.grid, cfg.ctx,
                         cfg.bisection_tol, threads=cfg.threads,
                         progress=progress, center=cfg.center,
                         delta_phi=cfg.delta_phi)

    _write_csv(os.path.join(out_dir, "pareto.csv"), PARETO_HEADER,
               _pareto_rows(result.archive.entries, cfg.moga.seed))
    _write_csv(os.path.join(out_dir, "history.csv"),
               ["generation", "hypervolume", "n_feasible"],
               [[str(h.generation), _num(h.hypervolume), str(h.n_feasible)]
                for h in result.history])

    fronts = moga.per_architecture_fronts(list(result.evaluations))
    front_rows: list[list[str]] = []
    for arch in Architecture:
        front_rows.extend(_pareto_rows(fronts[arch].entries, cfg.moga.seed))
    _write_csv(os.path.join(out_dir, "fronts_by_architecture.csv"),
               PARETO_HEADER, front_rows)

    manifest = {
        "seed": cfg.moga.seed,
        "population": cfg.moga.population,
        "generations": cfg.moga.generations,
        "total_evaluations": cfg.moga.population * cfg.moga.generations,
        "doe": DOE_NOTE,
        "optimizer": OPTIMIZER_NOTE,
        "working_mode": [b.name for b in cfg.ctx.mode],
        # the resolved physics; the limits are what wrench and accuracy give
        "bounds": dataclasses.asdict(cfg.bounds),
        "material": dataclasses.asdict(cfg.ctx.material),
        "actuator": dataclasses.asdict(cfg.ctx.actuator),
        "stiffness_thresholds": dataclasses.asdict(cfg.ctx.limits),
        "dexterity": dataclasses.asdict(cfg.ctx.dexterity),
        "workspace": {
            "center": list(cfg.center),
            "delta_phi_deg": cfg.delta_phi_deg,
            "bisection_tol": cfg.bisection_tol,
            "grid": dataclasses.asdict(cfg.grid),
        },
        "archive_size": len(result.archive),
        "n_feasible_total": int(sum(e.feasible for e in result.evaluations)),
        # the DOE bits depend on numpy's Generator
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
    }
    _write_text(os.path.join(out_dir, "run.json"),
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if len(result.archive) == 0:
        print("no feasible design found within the evaluation budget",
              file=sys.stderr)
        return 4
    print(f"archive of {len(result.archive)} designs written to {out_dir}")
    return 0


def _parse_architecture(text: str) -> Architecture:
    name = text.strip().upper()
    if name in Architecture.__members__:
        return Architecture[name]
    try:
        return Architecture(int(name))
    except ValueError:
        raise ConfigError("architecture", f"unknown architecture {text!r}")


def cmd_sweep(source: str, arch: Architecture, out_path: str) -> int:
    """Extract one architecture's front for plotting R_w trends."""
    path = source
    if os.path.isdir(source):
        path = os.path.join(source, "fronts_by_architecture.csv")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [row for row in reader if int(row["d"]) == int(arch)]
        rows.sort(key=lambda r: float(r["R_w_m"]))
        out_rows = [[row[k] for k in SWEEP_HEADER] for row in rows]
    except OSError as exc:
        raise ConfigError(path, f"cannot read archive: {exc}")
    except (KeyError, ValueError, TypeError):
        raise ConfigError(path, "not a pareto/front CSV (missing columns)")
    if not out_rows:
        print(f"front for {arch.name} is empty", file=sys.stderr)
        return 5
    _write_csv(out_path, SWEEP_HEADER, out_rows)
    print(f"{len(out_rows)} front designs written to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmopt",
        description="Evaluate and optimize planar parallel manipulator designs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score a single design")
    p_eval.add_argument("--config", default=None, help="YAML run config")
    p_eval.add_argument("--design", required=True,
                        help="d=..,R=..,r=..,L_b=..,r_j=..,r_p=..")
    p_eval.add_argument("--out", default="report.json")

    p_opt = sub.add_parser("optimize", help="run the genetic algorithm")
    p_opt.add_argument("--config", default=None)
    p_opt.add_argument("--seed", type=int, default=None,
                       help="override moga.seed")
    p_opt.add_argument("--out", default=None, help="output directory")
    p_opt.add_argument("--threads", type=int, default=None,
                       help="fitness workers (0 = all cores)")

    p_sweep = sub.add_parser("sweep", help="per-architecture front CSV")
    p_sweep.add_argument("--from", dest="source", required=True,
                         help="optimize output dir or front CSV")
    p_sweep.add_argument("--architecture", required=True,
                         help="PRR | RPR | RRR | 1 | 2 | 3")
    p_sweep.add_argument("--out", default="sweep.csv")

    sub.add_parser("print-defaults", help="dump the default configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "print-defaults":
            sys.stdout.write(default_config_yaml())
            return 0
        if args.command == "evaluate":
            cfg = load_config(args.config)
            design = parse_design(args.design)
            return cmd_evaluate(cfg, design, args.out)
        if args.command == "optimize":
            cfg = load_config(args.config)
            if args.seed is not None:
                try:
                    moga_cfg = dataclasses.replace(cfg.moga, seed=args.seed)
                except InvalidValue as exc:
                    raise ConfigError("moga.seed", str(exc))
                cfg = dataclasses.replace(cfg, moga=moga_cfg)
            if args.threads is not None:
                cfg = dataclasses.replace(cfg, threads=args.threads)
            return cmd_optimize(cfg, args.out or cfg.output_dir)
        if args.command == "sweep":
            return cmd_sweep(args.source, _parse_architecture(args.architecture),
                             args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
