"""Command-line front end: family description files in, JSON verdicts out.

Subcommands
-----------
``analyze``    decide robust stability of the family in a JSON file
``oracle``     brute-force sampling cross-check of the same file
``enumerate``  count (and optionally list) the edge configurations
``validate``   structural diagnostics for a family file

Exit codes are a pure function of the outcome: 0 robustly stable,
1 unstable, 2 degenerate, 3 inconclusive, 64 input or schema error,
65 internal error.

Input schema (JSON)::

    {
      "n": 3,
      "region": {"type": "hurwitz"}
                | {"type": "shifted_half_plane", "sigma": -0.5}
                | {"type": "disk", "center": 0.0, "radius": 1.0},
      "mode": "polytope",            # optional, cross-checked
      "entries": [[cell, ...], ...], # n x n
      "tolerances": {...}            # optional, flags win
    }

A polytope cell is ``{"vertices": [[c0, c1, ...], ...]}``; an interval
cell is ``{"lower": [...], "upper": [...]}``.  Coefficients ascend:
constant term first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import fields as dataclass_fields

import numpy as np

from . import __version__
from .det import det_matrix, det_parametric
from .edges import config_at, count_configs, iter_configs
from .errors import EdgeStabError, SchemaError, ValidationFailure
from .family import IntervalEntry, MatrixFamily, PolytopeEntry, validate
from .oracle import sample_family
from .poly import Polynomial
from .region import Disk, HurwitzHalfPlane, Region, ShiftedHalfPlane, member_margins
from .stab import (
    Status,
    Tolerances,
    analyze_family_detailed,
    analyze_interval_detailed,
)

_STATUS_EXIT = {
    Status.ROBUSTLY_STABLE: 0,
    Status.UNSTABLE: 1,
    Status.DEGENERATE: 2,
    Status.INCONCLUSIVE: 3,
}
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 65

# How multi-parameter configurations are decided; recorded in every report so
# downstream consumers know which convention produced the verdict.
INTERPRETATION = (
    "each edge configuration is decided over its full parameter box "
    "(all lambda coordinates jointly); one-parameter segments are the k=1 case"
)


# ----------------------------------------------------------------------
# input parsing


def _number(val, path) -> float:
    """A JSON number as a finite float; NaN, infinities and overflowing integers are refused."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{path}: must be finite, got {val!r}")
    return out


def _want(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in obj:
        raise SchemaError(f"{path}: missing required field {key!r}")
    val = obj[key]
    if kind is float:
        return _number(val, f"{path}.{key}")
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise SchemaError(f"{path}.{key}: expected an integer")
        return val
    if not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}")
    return val


def _coeff_list(val, path):
    if not isinstance(val, list) or not val:
        raise SchemaError(f"{path}: expected a nonempty coefficient array")
    return [_number(c, f"{path}[{idx}]") for idx, c in enumerate(val)]


def parse_region(obj, path="region") -> Region:
    kind = _want(obj, "type", str, path)
    if kind == "hurwitz":
        return HurwitzHalfPlane()
    if kind == "shifted_half_plane":
        return ShiftedHalfPlane(_want(obj, "sigma", float, path))
    if kind == "disk":
        center = obj.get("center", 0.0)
        parts = center if isinstance(center, list) else [center, 0.0]
        if len(parts) != 2:
            raise SchemaError(f"{path}.center: expected a number or [re, im]")
        center = complex(*(_number(x, f"{path}.center") for x in parts))
        radius = _want(obj, "radius", float, path)
        if radius <= 0.0:
            raise SchemaError(f"{path}.radius: must be positive")
        return Disk(center, radius)
    raise SchemaError(f"{path}.type: unknown region type {kind!r}")


def _parse_cell(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if "vertices" in obj:
        verts = obj["vertices"]
        if not isinstance(verts, list) or not verts:
            raise SchemaError(f"{path}.vertices: expected a nonempty array")
        polys = [
            Polynomial(_coeff_list(v, f"{path}.vertices[{r}]")) for r, v in enumerate(verts)
        ]
        return PolytopeEntry(tuple(polys))
    if "lower" in obj or "upper" in obj:
        lo = _coeff_list(_want(obj, "lower", list, path), f"{path}.lower")
        hi = _coeff_list(_want(obj, "upper", list, path), f"{path}.upper")
        if len(lo) != len(hi):
            raise SchemaError(f"{path}: lower and upper must have equal length")
        return IntervalEntry(np.array(lo), np.array(hi))
    raise SchemaError(f"{path}: cell needs either 'vertices' or 'lower'/'upper'")


def parse_family_dict(doc, region_override: Region | None = None) -> MatrixFamily:
    n = _want(doc, "n", int, "$")
    if n < 1:
        raise SchemaError("$.n: must be at least 1")
    region = region_override if region_override is not None else parse_region(
        _want(doc, "region", dict, "$")
    )
    entries_doc = _want(doc, "entries", list, "$")
    if len(entries_doc) != n:
        raise SchemaError(f"$.entries: expected {n} rows, got {len(entries_doc)}")
    grid = []
    for i, row in enumerate(entries_doc):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"$.entries[{i}]: expected a row of {n} cells")
        grid.append(
            [_parse_cell(cell, f"$.entries[{i}][{j}]") for j, cell in enumerate(row)]
        )
    try:
        fam = MatrixFamily(grid, region)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    declared = doc.get("mode")
    if declared is not None and declared != fam.mode:
        raise SchemaError(
            f"$.mode: declared {declared!r} but the cells describe a {fam.mode} family"
        )
    return fam


def parse_family(path: str, region_override: Region | None = None) -> MatrixFamily:
    """Load and validate a family description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return parse_family_dict(doc, region_override)


def parse_tolerances(doc, args) -> Tolerances:
    """File-level tolerance block overridden by command-line flags."""
    values = {}
    block = doc.get("tolerances", {}) if isinstance(doc, dict) else {}
    if not isinstance(block, dict):
        raise SchemaError("$.tolerances: expected an object")
    names = {f.name for f in dataclass_fields(Tolerances)}
    for key, val in block.items():
        if key not in names:
            raise SchemaError(f"$.tolerances.{key}: unknown tolerance")
        _number(val, f"$.tolerances.{key}")
        values[key] = val
    for flag, name in (
        ("grid", "boundary_grid"),
        ("refine_depth", "refine_depth"),
        ("box_depth", "box_depth"),
        ("zero_margin", "zero_margin"),
        ("degree_eps", "degree_eps"),
    ):
        v = getattr(args, flag, None)
        if v is not None:
            values[name] = v
    for name in ("boundary_grid", "refine_depth", "box_depth"):
        val = values.get(name)
        if isinstance(val, float):
            if not val.is_integer():
                raise SchemaError(f"tolerances: {name} must be an integer, got {val!r}")
            values[name] = int(val)
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise SchemaError(f"tolerances: {exc}") from exc


def _region_from_flag(text: str) -> Region:
    """Region grammar for --region: hurwitz | shifted:SIGMA | disk:CX[,CY],R."""
    parts = text.split(":", 1)
    kind = parts[0]
    if kind == "hurwitz":
        if len(parts) > 1 and parts[1]:
            raise SchemaError("--region hurwitz takes no parameters")
        return HurwitzHalfPlane()
    if kind not in ("shifted", "disk"):
        raise SchemaError(f"--region: unknown region {kind!r}")
    if len(parts) != 2:
        raise SchemaError(
            "--region shifted:SIGMA needs a shift value"
            if kind == "shifted"
            else "--region disk:CX[,CY],R needs parameters"
        )
    try:
        nums = [float(x) for x in parts[1].split(",")]
    except ValueError as exc:
        raise SchemaError(f"--region {kind}: bad number in {parts[1]!r}") from exc
    if not all(math.isfinite(x) for x in nums):
        raise SchemaError(f"--region {kind}: numbers must be finite, got {parts[1]!r}")
    if kind == "shifted":
        if len(nums) != 1:
            raise SchemaError(f"--region shifted: bad number in {parts[1]!r}")
        return ShiftedHalfPlane(nums[0])
    if len(nums) == 2:
        center, radius = complex(nums[0], 0.0), nums[1]
    elif len(nums) == 3:
        center, radius = complex(nums[0], nums[1]), nums[2]
    else:
        raise SchemaError("--region disk:CX[,CY],R takes two or three numbers")
    if radius <= 0.0:
        raise SchemaError("--region disk: radius must be positive")
    return Disk(center, radius)


# ----------------------------------------------------------------------
# report assembly


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _json_safe(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _render(obj) -> str:
    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return _json_safe(x)

    return json.dumps(walk(obj), sort_keys=True, indent=2)


def _emit(report: dict, args) -> None:
    text = _render(report)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _witness_block(fam: MatrixFamily, verdict) -> dict | None:
    """Everything needed to re-verify an unstable verdict by hand."""
    w = verdict.witness
    if w is None:
        return None
    block: dict = {
        "root": [w.root.real, w.root.imag] if w.root is not None else None,
        "theta": w.theta,
        "lambda": list(w.lam) if w.lam is not None else None,
    }
    if w.config_index is None:
        return block
    cfg = config_at(fam, w.config_index)
    block["configuration"] = cfg.describe()
    if w.lam is not None:
        pd = det_parametric(cfg)
        member = pd.assemble(np.asarray(w.lam, dtype=float))
        block["determinant_coeffs"] = member.as_list()
        direct = det_matrix(cfg.instantiate(np.clip(np.asarray(w.lam), 0.0, 1.0)))
        block["assembled_matches_direct"] = bool(member == direct or member.isclose(direct))
        if member.degree > 0:
            margins, roots = member_margins(fam.region, member.coeffs[None])
            root = roots[0]
            block["reproduced_margin"] = float(margins[0])
            block["reproduced_root"] = [root.real, root.imag]
    return block


def _base_report(command: str, path: str, fam: MatrixFamily, started: float, args) -> dict:
    return {
        "command": command,
        "input": path,
        "input_digest": _digest(path),
        "interpretation": INTERPRETATION,
        "mode": fam.mode,
        "n": fam.n,
        "region": fam.region.describe(),
        "tool": {"name": "edgestab", "version": __version__},
        "wall_time_s": round(time.monotonic() - started, 3)
        if getattr(args, "timing", False)
        else None,
    }


# ----------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    started = time.monotonic()
    region = _region_from_flag(args.region) if args.region else None
    with open(args.family, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    fam = parse_family_dict(doc, region)
    tol = parse_tolerances(doc, args)
    drive = analyze_interval_detailed if fam.mode == "interval" else analyze_family_detailed
    verdict, outcomes = drive(fam, tol, jobs=args.jobs)
    report = _base_report("analyze", args.family, fam, started, args)
    report.update(
        {
            "config_count": count_configs(fam),
            "configs_checked": len(outcomes),
            "configs": [
                {
                    "index": o.index,
                    "margin": o.margin,
                    "reason": o.reason,
                    "status": o.status.value,
                }
                for o in outcomes
            ],
            "tolerances": {
                f.name: getattr(tol, f.name) for f in dataclass_fields(Tolerances)
            },
            "verdict": verdict.describe(),
            "witness_reproduction": _witness_block(fam, verdict),
        }
    )
    if args.timing:
        report["wall_time_s"] = round(time.monotonic() - started, 3)
    _emit(report, args)
    return _STATUS_EXIT[verdict.status]


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    region = _region_from_flag(args.region) if args.region else None
    fam = parse_family(args.family, region)
    sr = sample_family(fam, budget=args.budget, seed=args.seed, scheme=args.scheme)
    report = _base_report("oracle", args.family, fam, started, args)
    report["sampling"] = sr.describe()
    if args.timing:
        report["wall_time_s"] = round(time.monotonic() - started, 3)
    _emit(report, args)
    return 0 if sr.verdict == "StableAtAllSamples" else 1


def _cmd_enumerate(args) -> int:
    region = _region_from_flag(args.region) if args.region else None
    fam = parse_family(args.family, region)
    total = count_configs(fam)
    if args.count_only:
        print(total)
        return 0
    listing = None
    if args.list is not None:
        stop = total if args.list == 0 else min(args.list, total)
        listing = [cfg.describe() for cfg in iter_configs(fam, stop=stop)]
    report = {
        "command": "enumerate",
        "config_count": total,
        "input": args.family,
        "input_digest": _digest(args.family),
        "mode": fam.mode,
        "n": fam.n,
        "tool": {"name": "edgestab", "version": __version__},
    }
    if listing is not None:
        report["configs"] = listing
    _emit(report, args)
    return 0


def _cmd_validate(args) -> int:
    region = _region_from_flag(args.region) if args.region else None
    fam = parse_family(args.family, region)
    diagnostics = validate(fam)
    report = {
        "command": "validate",
        "diagnostics": [d.as_dict() for d in diagnostics],
        "input": args.family,
        "input_digest": _digest(args.family),
        "mode": fam.mode,
        "n": fam.n,
        "tool": {"name": "edgestab", "version": __version__},
    }
    _emit(report, args)
    return 0 if not any(d.level == "error" for d in diagnostics) else EXIT_INPUT_ERROR


# ----------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="path to the family description JSON file")
    p.add_argument("--region", help="override the file's region: hurwitz | shifted:S | disk:CX[,CY],R")
    p.add_argument("--report", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgestab",
        description="Robust stability analysis of uncertain polynomial matrices",
    )
    ap.add_argument("--version", action="version", version=f"edgestab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decide robust stability of a family")
    _add_common(pa)
    pa.add_argument(
        "--grid", type=int, help=f"boundary seed-grid sample count (default {Tolerances.boundary_grid})"
    )
    pa.add_argument("--refine-depth", dest="refine_depth", type=int, help="refinement rounds")
    pa.add_argument("--box-depth", dest="box_depth", type=int, help="parameter-box subdivision depth")
    pa.add_argument("--zero-margin", dest="zero_margin", type=float, help="inconclusive band")
    pa.add_argument("--degree-eps", dest="degree_eps", type=float, help="degree-drop threshold")
    pa.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    pa.add_argument(
        "--timing",
        action="store_true",
        help="record wall time in the report (off by default so reports are reproducible)",
    )
    pa.set_defaults(func=_cmd_analyze)

    po = sub.add_parser("oracle", help="sample members and hunt for unstable ones")
    _add_common(po)
    po.add_argument("--budget", type=int, default=10000, help="number of members to sample")
    po.add_argument("--seed", type=int, default=0, help="random seed")
    po.add_argument(
        "--scheme", choices=("random", "grid"), default="random", help="sampling scheme"
    )
    po.add_argument("--timing", action="store_true", help="record wall time in the report")
    po.set_defaults(func=_cmd_oracle)

    pe = sub.add_parser("enumerate", help="count or list the edge configurations")
    _add_common(pe)
    pe.add_argument("--count-only", dest="count_only", action="store_true", help="print just the count")
    pe.add_argument(
        "--list",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="LIMIT",
        help="include configuration descriptions (0 or no value = all)",
    )
    pe.set_defaults(func=_cmd_enumerate)

    pv = sub.add_parser("validate", help="structural diagnostics for a family file")
    _add_common(pv)
    pv.set_defaults(func=_cmd_validate)
    return ap


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map every outcome to an exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_INPUT_ERROR if code not in (0,) else 0
    try:
        return args.func(args)
    except (SchemaError, ValidationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EdgeStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
