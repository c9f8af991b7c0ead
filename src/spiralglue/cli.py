"""Batch front end: configure, run the full pipeline, and emit reports.

Commands: bounds, run, theory, weights, gen-points. Reports are JSON with all
floats at full precision; timing data is isolated under a single key so that
runs with identical configs and seeds produce byte-identical reports once
timings are masked.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bank import (
    BankStrategy,
    BlockShift,
    QuadratureL2toL1,
    UserMatrices,
    build_bank,
    select_subsequence,
)
from .errors import (
    BankExhausted,
    BoundViolated,
    CertificationFailed,
    NonPositiveLowerBound,
    SpiralGlueError,
)
from .glue import GlueEmbedding, embed_all
from .pointset import (
    LocallyFiniteSet,
    decompose,
    generate_annular,
    load_points,
    make_point_set,
    points_to_dict,
)
from .schedule import (
    Params,
    WeightSystem,
    build_schedule,
    schedule_to_dict,
    weight_grid,
)
from .spaces import Space, norm_from_dict, row_blocks, space_from_dict
from .verify import (
    DistortionReport,
    distortion_report,
    fuzz_pair_inequalities,
    solve_params,
    spreading_bound_minimum,
    theoretical_bounds,
)


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration; exactly one of params/eps_target is set."""

    raw: dict
    source: Space
    target: Space
    params: Params
    r1: float
    levels: int
    margin: float
    strategy: BankStrategy
    bank_count: int
    certify_random: int
    certify_seed: int
    points: LocallyFiniteSet | None
    generator: dict | None
    report_path: str | None
    pairs_csv_path: str | None
    images_path: str | None


def _build_strategy(bank_cfg: dict, source: Space) -> tuple[BankStrategy, int]:
    """Strategy plus the per-map block width in the target (0 for user maps)."""
    name = bank_cfg.get("strategy")
    if name == "block_shift":
        width = bank_cfg.get("block_width")
        bw = source.dim if width is None else int(width)
        return BlockShift(width), bw
    if name == "quadrature_l2_to_l1":
        directions = int(bank_cfg.get("directions", 64))
        return QuadratureL2toL1(directions, int(bank_cfg.get("seed", 0))), directions
    if name == "user_matrices":
        mats = tuple(np.asarray(m, dtype=float) for m in bank_cfg["matrices"])
        return UserMatrices(mats), 0
    raise ValueError(f"unknown bank strategy {name!r}")


def parse_config(raw: dict) -> RunConfig:
    if ("params" in raw) == ("eps_target" in raw):
        raise ValueError("config must set exactly one of 'params' and 'eps_target'")
    if "params" in raw:
        p = raw["params"]
        params = Params(float(p["eps"]), float(p["delta"]), float(p["gamma"]), float(p["zeta"]))
    else:
        params = solve_params(float(raw["eps_target"]))
    source = space_from_dict(raw["source"])
    sched_cfg = raw.get("schedule", {})
    r1 = float(sched_cfg.get("r1", 1.0))
    levels = int(sched_cfg.get("levels", 3))
    margin = float(sched_cfg.get("margin", 0.01))

    bank_cfg = raw.get("bank", {})
    strategy, block = _build_strategy(bank_cfg, source)
    count = int(bank_cfg.get("count", levels + 2))
    target_cfg = raw.get("target", {})
    if isinstance(strategy, UserMatrices):
        tdim = strategy.matrices[0].shape[0]
    else:
        tdim = int(target_cfg.get("dim", count * block))
    target_norm = norm_from_dict(target_cfg["norm"]) if "norm" in target_cfg else source.norm
    target = Space(tdim, target_norm)

    pts_cfg = raw.get("points", {})
    points = None
    generator = None
    if "file" in pts_cfg:
        points = load_points(pts_cfg["file"])
    elif "inline" in pts_cfg:
        points = make_point_set(source, np.asarray(pts_cfg["inline"], dtype=float))
    elif "generator" in pts_cfg:
        generator = dict(pts_cfg["generator"])
    else:
        raise ValueError("config 'points' must provide one of file/inline/generator")

    out_cfg = raw.get("output", {})
    return RunConfig(
        raw=raw,
        source=source,
        target=target,
        params=params,
        r1=r1,
        levels=levels,
        margin=margin,
        strategy=strategy,
        bank_count=count,
        certify_random=int(bank_cfg.get("certify_random", 32)),
        certify_seed=int(bank_cfg.get("certify_seed", 0)),
        points=points,
        generator=generator,
        report_path=out_cfg.get("report"),
        pairs_csv_path=out_cfg.get("pairs_csv"),
        images_path=out_cfg.get("images"),
    )


def _certify_vectors(cfg: RunConfig, pts: LocallyFiniteSet, decomp) -> np.ndarray:
    """All points, all pairwise differences (a < b, row-major), all recorded
    directions, plus seeded random unit-scale vectors, as one (N, dim) array."""
    coords = pts.coords
    n, dim = coords.shape
    first, second = np.triu_indices(n, 1)
    dirs = [da.u for level_dirs in decomp.directions for da in level_dirs]
    out = np.empty((n + len(first) + len(dirs) + cfg.certify_random, dim))
    out[:n] = coords
    diffs = out[n : n + len(first)]
    for block in row_blocks(len(first), dim):
        np.subtract(coords[first[block]], coords[second[block]], out=diffs[block])
    out[n + len(first) : n + len(first) + len(dirs)] = np.reshape(dirs, (-1, dim))
    # one draw of k rows consumes the generator exactly as k draws of one row
    rng = np.random.default_rng(cfg.certify_seed)
    out[len(out) - cfg.certify_random :] = rng.standard_normal((cfg.certify_random, dim))
    return out


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _report_dict(cfg, sched, bank, selection, dist: DistortionReport) -> dict:
    return {
        "config": cfg.raw,
        "schedule": schedule_to_dict(sched),
        "bank": {
            "count": bank.size,
            "gamma": bank.gamma,
            "eps_n": list(bank.eps_n),
            "cert_lower_margin": list(bank.cert_lower_margin),
            "cert_upper_margin": list(bank.cert_upper_margin),
        },
        "selection": {
            "chosen_indices": list(selection.chosen_indices),
            "worst_margins": list(selection.worst_margins),
            "zeta": selection.zeta,
            "threshold": selection.threshold,
        },
        "distortion": {
            "min_ratio": dist.min_ratio,
            "max_ratio": dist.max_ratio,
            "distortion": dist.distortion,
            "witness_min": list(dist.witness_min),
            "witness_max": list(dist.witness_max),
            "bounds": {
                "l_same": dist.bounds.l_same,
                "u_same": dist.bounds.u_same,
                "l_far": dist.bounds.l_far,
                "u_far": dist.bounds.u_far,
                "ratio": dist.bounds.ratio,
            },
            "by_class": {
                k: {
                    "count": v.count,
                    "min_ratio": v.min_ratio,
                    "max_ratio": v.max_ratio,
                    "min_lower_slack": v.min_lower_slack,
                    "min_upper_slack": v.min_upper_slack,
                }
                for k, v in sorted(dist.by_class.items())
            },
        },
        "status": "ok",
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_pairs_csv(path: str, dist: DistortionReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_id", "y_id", "class", "ratio", "lower_slack", "upper_slack"])
        for pc in dist.pair_checks:
            writer.writerow(
                [pc.x_id, pc.y_id, pc.kind, repr(pc.ratio), repr(pc.lower_slack), repr(pc.upper_slack)]
            )


def run_pipeline(cfg: RunConfig, tolerance: float = 1e-9):
    """schedule -> points -> decomposition -> bank -> selection -> glue -> sweep."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    sched = build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    ws = WeightSystem(sched)
    timings["schedule"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.points is not None:
        pts = cfg.points
    else:
        gen = cfg.generator
        pts = generate_annular(
            int(gen.get("seed", 0)),
            sched,
            int(gen.get("per_level", 10)),
            cfg.source.dim,
            gen.get("placement", "mixed"),
            cfg.source.norm,
        )
    decomp = decompose(pts, sched)
    timings["points"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    certify = _certify_vectors(cfg, pts, decomp)
    bank = build_bank(
        cfg.strategy, cfg.source, cfg.target, cfg.params.gamma, cfg.bank_count, certify
    )
    selection = select_subsequence(bank, decomp, cfg.params.zeta)
    timings["bank"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    g = GlueEmbedding(ws, bank, selection)
    dist = distortion_report(g, pts, tol=tolerance)
    timings["sweep"] = time.perf_counter() - t0

    report = _report_dict(cfg, sched, bank, selection, dist)
    report["timings"] = timings
    return report, dist, g, pts


def cmd_bounds(args) -> int:
    try:
        if args.target is not None:
            params = solve_params(args.target)
        else:
            params = Params(args.eps, args.delta, args.gamma, args.zeta)
        b = theoretical_bounds(params)
    except (NonPositiveLowerBound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"params: eps={params.eps} delta={params.delta} gamma={params.gamma} zeta={params.zeta}")
    print(f"l_same={b.l_same!r}")
    print(f"u_same={b.u_same!r}")
    print(f"l_far={b.l_far!r}")
    print(f"u_far={b.u_far!r}")
    print(f"ratio={b.ratio!r}")
    return 0


def cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = parse_config(raw)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and cfg.generator is not None:
        cfg.generator["seed"] = args.seed
    report_path = args.out or cfg.report_path
    try:
        report, dist, g, pts = run_pipeline(cfg, tolerance=args.tolerance)
    except (BankExhausted, CertificationFailed, BoundViolated, NonPositiveLowerBound) as exc:
        failure = {
            "config": cfg.raw,
            "status": type(exc).__name__,
            "error": str(exc),
        }
        if report_path:
            _write_json(report_path, failure)
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except SpiralGlueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if report_path:
        _write_json(report_path, report)
    if cfg.pairs_csv_path:
        _write_pairs_csv(cfg.pairs_csv_path, dist)
    if cfg.images_path:
        images = {str(k): v.tolist() for k, v in sorted(embed_all(g, pts).items())}
        _write_json(cfg.images_path, images)
    print(
        f"distortion {dist.distortion!r} <= bound {dist.bounds.ratio!r} "
        f"over {len(dist.pair_checks)} pairs"
    )
    return 0


def cmd_theory(args) -> int:
    ok = True
    try:
        value, arg = spreading_bound_minimum(args.grid)
        target = math.sqrt(2.0) / 3.0
        good = abs(value - target) <= 1e-6
        detail = f"minimum {value!r} at {arg!r}"
    except SpiralGlueError as exc:
        good, detail = False, str(exc)
    ok &= good
    print(f"[{'PASS' if good else 'FAIL'}] spreading bound {detail}")

    ratios = []
    for k in range(21):
        s = 0.01 * 2.0**-k
        ratios.append(theoretical_bounds(Params(s, s, s, s)).ratio)
    mono = all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    toward3 = ratios[-1] >= 3.0 - 1e-9 and ratios[-1] - 3.0 <= 1e-6
    ok &= mono and toward3
    print(
        f"[{'PASS' if mono and toward3 else 'FAIL'}] bounds ratio decreases "
        f"{ratios[0]!r} -> {ratios[-1]!r} toward 3"
    )

    fuzz = fuzz_pair_inequalities(args.seed, args.pairs)
    good = (
        fuzz.min_lower_slack >= -1e-9
        and fuzz.min_upper_slack >= -1e-9
        and fuzz.max_identity_residual <= 1e-9
    )
    ok &= good
    print(
        f"[{'PASS' if good else 'FAIL'}] pair sandwich slacks "
        f"({fuzz.min_lower_slack!r}, {fuzz.min_upper_slack!r}), "
        f"identity residual {fuzz.max_identity_residual!r} over {fuzz.pairs} pairs"
    )
    return 0 if ok else 1


def _schedule_from_args(args) -> WeightSystem:
    params = Params(args.eps, args.delta, args.gamma, args.zeta)
    return WeightSystem(build_schedule(params, args.r1, args.levels, args.margin))


def cmd_weights(args) -> int:
    try:
        ws = _schedule_from_args(args)
        ts, table = weight_grid(ws, args.grid)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mu_{k}" for k in range(1, table.shape[1] + 1)])
        for t, row in zip(ts, table):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
    print(f"wrote {len(ts)} rows x {table.shape[1]} weights to {args.out}")
    return 0


def cmd_gen_points(args) -> int:
    try:
        ws = _schedule_from_args(args)
        pts = generate_annular(
            args.seed, ws.schedule, args.per_level, args.dim, args.placement
        )
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = points_to_dict(pts)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def _add_param_flags(p, with_gamma_zeta=True):
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    if with_gamma_zeta:
        p.add_argument("--gamma", type=float, default=0.01)
        p.add_argument("--zeta", type=float, default=0.01)


def _add_schedule_flags(p):
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--margin", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralglue",
        description="Construct and verify low-distortion glued embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the closed-form two-sided bounds")
    _add_param_flags(p)
    p.add_argument("--target", type=float, default=None, help="solve for ratio <= 3 + target")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the report path")
    p.add_argument("--seed", type=int, default=None, help="override the generator seed")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("theory", help="run the closed-form and identity checks")
    p.add_argument("--grid", type=int, default=10001)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("weights", help="export the weight curves as CSV")
    _add_param_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("gen-points", help="generate a point set JSON")
    _add_param_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-level", dest="per_level", type=int, default=10)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--placement", choices=["plateau", "ramp", "mixed"], default="mixed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_points)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
