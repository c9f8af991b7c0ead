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
import os
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
    DimensionMismatch,
    NonPositiveLowerBound,
    SpiralGlueError,
)
# embed_all is not called here, but bench/spans.py wraps cli.embed_all
from .glue import GlueEmbedding, embed_all  # noqa: F401
from .pointset import (
    PLACEMENTS,
    LocallyFiniteSet,
    decompose,
    generate_annular,
    load_points,
    make_point_set,
    points_to_dict,
)
from .schedule import (
    Params,
    RadiiSchedule,
    build_schedule,
    schedule_to_dict,
    weight_grid,
)
from .spaces import NormSpec, Space, norm_from_dict, row_blocks, space_to_dict
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


# the keys each object of a run config may hold, by dotted path ("" is the top
# level), and those of a norm object, by its kind ("norm=<kind>")
_CONFIG_KEYS = {
    "": "source target params eps_target schedule points bank output",
    "source": "dim norm",
    "params": "eps delta gamma zeta",
    "schedule": "r1 levels margin",
    "bank": "strategy count block_width directions seed matrices certify_random certify_seed",
    "target": "dim norm",
    "points": "file inline generator",
    "points.generator": "seed per_level placement",
    "output": "report pairs_csv images",
    "norm=lp": "norm p",
    "norm=weighted_lp": "norm p weights",
    "norm=max_abs": "norm functionals",
}

# the most matrix elements of a generated bank (block_shift, quadrature):
# count maps of target.dim x source.dim each (1 GiB dense). The maps keep only
# their hulls, but the target width sets the width of every image a run forms
MAX_BANK_ELEMENTS = 1 << 27


def _section(parent: dict, path: str, table: str | None = None) -> dict:
    """The object at dotted `path` under parent ({} when absent; parent itself
    for the top level), checked to hold only the keys that _CONFIG_KEYS lists
    under `table` (by default, under the path)."""
    section = parent.get(path.rpartition(".")[2], {}) if path else parent
    if not isinstance(section, dict):
        raise ValueError(f"{path or 'config'}: expected an object, got {section!r}")
    known = _CONFIG_KEYS[path if table is None else table].split()
    unknown = sorted(set(section) - set(known))
    if unknown:
        name = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ValueError(f"{name}: unknown key; expected one of {known}")
    return section


def _read(section: dict, path: str, key: str, convert, *default):
    """convert(section[key]), or default[0] when given and the key is absent;
    a missing or rejected value raises ValueError naming the dotted key."""
    name = f"{path}.{key}" if path else key
    if key not in section:
        if default:
            return default[0]
        raise ValueError(f"{name}: missing")
    try:
        return convert(section[key])
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read_norm(section: dict, path: str, *default) -> NormSpec:
    """The norm object at path.norm, or default[0] when absent and given; it
    may hold only the keys of its kind (an unknown kind is reported as such)."""
    raw = section.get("norm")
    kind = raw.get("norm") if isinstance(raw, dict) else None
    if f"norm={kind}" in _CONFIG_KEYS:
        _section(section, f"{path}.norm", f"norm={kind}")
    return _read(section, path, "norm", norm_from_dict, *default)


def _integer(minimum: int):
    """A converter that accepts an integral number of at least minimum: not a
    bool, a string or a float with a fractional part."""

    def convert(value) -> int:
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not integral:
            raise ValueError(f"expected an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
        return int(value)

    return convert


def _real(rule: str, holds):
    """A converter that accepts a finite real number (not a bool, a string or
    a non-finite float) for which holds(value) is true; rule says which."""

    def convert(value) -> float:
        try:
            real = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # a string, a list; an int beyond floats
            real = False
        if not real:
            raise ValueError(f"expected a finite real number, got {value!r}")
        if not holds(value):
            raise ValueError(f"expected a real number {rule}, got {value!r}")
        return float(value)

    return convert


def _output_path(path) -> str:
    """A file path whose directory exists, so the run's outputs can be
    written once it has run."""
    if not isinstance(path, str) or not path:
        raise ValueError(f"expected a file path, got {path!r}")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"directory {directory!r} does not exist")
    return path


def _only(want: int, what: str):
    """A converter that accepts the integer want and nothing else."""

    def convert(value) -> int:
        if _integer(1)(value) != want:
            raise ValueError(f"{value!r} != {what} {want}")
        return want

    return convert


def _placement(name) -> str:
    if name not in PLACEMENTS:
        raise ValueError(f"unknown placement {name!r}; expected one of {list(PLACEMENTS)}")
    return name


def _space(path: str, dim: int, spec: NormSpec) -> Space:
    """Space(dim, spec), with a mismatch between the two named by path."""
    try:
        return Space(dim, spec)
    except (ValueError, DimensionMismatch) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _points_in(path: str, source: Space) -> LocallyFiniteSet:
    """The point set saved at path, which must lie in the source space."""
    pts = load_points(path)
    if pts.space != source:
        raise ValueError(
            f"the points' space {space_to_dict(pts.space)} differs from source "
            f"{space_to_dict(source)}"
        )
    return pts


def _user_matrices(matrices, source: Space) -> UserMatrices:
    """The caller's matrices: a non-empty list of 2-d arrays of one shape,
    each with a column per source coordinate."""
    strategy = UserMatrices(tuple(matrices))
    if not strategy.matrices or strategy.matrices[0].ndim != 2:
        raise ValueError("expected a non-empty list of 2-d matrices")
    want = (strategy.matrices[0].shape[0], source.dim)
    bad = next((m.shape for m in strategy.matrices if m.shape != want), None)
    if bad is not None:
        raise ValueError(f"matrix shape {bad} != {want}")
    return strategy


def _build_strategy(bank_cfg: dict, source: Space) -> tuple[BankStrategy, int]:
    """Strategy plus the per-map block width in the target (0 for user maps)."""
    name = bank_cfg.get("strategy")
    if name == "block_shift":
        width = _read(bank_cfg, "bank", "block_width", _integer(source.dim), source.dim)
        return BlockShift(width), width
    if name == "quadrature_l2_to_l1":
        directions = _read(bank_cfg, "bank", "directions", _integer(2), 64)
        seed = _read(bank_cfg, "bank", "seed", _integer(0), 0)
        return QuadratureL2toL1(directions, seed), directions
    if name == "user_matrices":
        return _read(bank_cfg, "bank", "matrices", lambda ms: _user_matrices(ms, source)), 0
    raise ValueError(f"unknown bank strategy {name!r}")


def parse_config(raw: dict) -> RunConfig:
    _section(raw, "")
    if ("params" in raw) == ("eps_target" in raw):
        raise ValueError("config must set exactly one of 'params' and 'eps_target'")
    if "params" in raw:
        p = _section(raw, "params")
        unit = _real("in (0, 1)", lambda v: 0.0 < v < 1.0)
        params = Params(*(_read(p, "params", k, unit) for k in ("eps", "delta", "gamma", "zeta")))
    else:
        eps_target = _read(raw, "", "eps_target", _real("> 0", lambda v: v > 0.0))
        params = solve_params(eps_target)
    source_cfg = _section(raw, "source")
    source = _space(
        "source", _read(source_cfg, "source", "dim", _integer(1)), _read_norm(source_cfg, "source")
    )
    sched_cfg = _section(raw, "schedule")
    r1 = _read(sched_cfg, "schedule", "r1", _real("> 0", lambda v: v > 0.0), 1.0)
    levels = _read(sched_cfg, "schedule", "levels", _integer(1), 3)
    margin = _read(sched_cfg, "schedule", "margin", _real(">= 0", lambda v: v >= 0.0), 0.01)

    bank_cfg = _section(raw, "bank")
    strategy, block = _build_strategy(bank_cfg, source)
    count = _read(bank_cfg, "bank", "count", _integer(2), levels + 2)
    # selection takes one map per level and one more
    if count < levels + 1:
        raise ValueError(f"bank.count: {count} < schedule.levels + 1 = {levels + 1}")
    target_cfg = _section(raw, "target")
    if isinstance(strategy, UserMatrices):
        if len(strategy.matrices) < count:
            raise ValueError(f"bank.count: {count} > {len(strategy.matrices)} matrices given")
        rows = strategy.matrices[0].shape[0]
        tdim = _read(target_cfg, "target", "dim", _only(rows, "matrix rows"), rows)
    else:
        tdim = _read(target_cfg, "target", "dim", _integer(1), count * block)
        if tdim < count * block:
            what = "directions" if isinstance(strategy, QuadratureL2toL1) else "columns"
            raise ValueError(f"target.dim: {tdim} cannot hold {count} blocks of {block} {what}")
        elements = count * tdim * source.dim
        if elements > MAX_BANK_ELEMENTS:
            raise ValueError(
                f"bank.count: {count} maps of {tdim} x {source.dim} hold {elements} matrix "
                f"elements, more than {MAX_BANK_ELEMENTS}"
            )
    target = _space("target", tdim, _read_norm(target_cfg, "target", source.norm))

    pts_cfg = _section(raw, "points")
    points = None
    generator = None
    if "file" in pts_cfg:
        points = _read(pts_cfg, "points", "file", lambda path: _points_in(path, source))
    elif "inline" in pts_cfg:
        points = _read(pts_cfg, "points", "inline", lambda rows: make_point_set(source, rows))
    elif "generator" in pts_cfg:
        gen = _section(pts_cfg, "points.generator")
        generator = {
            "seed": _read(gen, "points.generator", "seed", _integer(0), 0),
            "per_level": _read(gen, "points.generator", "per_level", _integer(1), 10),
            "placement": _read(gen, "points.generator", "placement", _placement, "mixed"),
        }
    else:
        raise ValueError("config 'points' must provide one of file/inline/generator")

    out_cfg = _section(raw, "output")
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
        certify_random=_read(bank_cfg, "bank", "certify_random", _integer(0), 32),
        certify_seed=_read(bank_cfg, "bank", "certify_seed", _integer(0), 0),
        points=points,
        generator=generator,
        report_path=_read(out_cfg, "output", "report", _output_path, None),
        pairs_csv_path=_read(out_cfg, "output", "pairs_csv", _output_path, None),
        images_path=_read(out_cfg, "output", "images", _output_path, None),
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


# the JSON spelling of the non-finite floats, as _write_json writes them
_JSON_NON_FINITE = {"inf": "null", "-inf": "null", "nan": "NaN"}


def _float_texts(values: np.ndarray, spelling: dict | None = None) -> list[str]:
    """repr(v), or spelling[repr(v)] where given, for each float v of a 1-d
    array, in order: each distinct bit pattern (np.unique on the uint64 view,
    so -0.0 and 0.0 stay apart) is formatted once and gathered back."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = list(map(repr, bits.view(float).tolist()))
    if spelling:
        texts = [spelling.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_images(path: str, ids, images: np.ndarray) -> None:
    """The images file, {str(id): image row}, with the bytes _write_json
    gives (keys sorted as strings, so "10" before "9"; inf as null, NaN as
    NaN), written one row at a time: json.dump with an indent runs the
    stdlib's pure-Python encoder. The rows are formatted a block at a time,
    each distinct float once."""
    keys = [str(i) for i in ids]
    with open(path, "w", encoding="utf-8") as fh:
        if not keys:
            fh.write("{}\n")
            return
        fh.write("{")
        sep = "\n"
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        width = images.shape[1]
        for block in row_blocks(len(order), width):
            rows = order[block]
            texts = _float_texts(images[rows].ravel(), _JSON_NON_FINITE)
            for j, k in enumerate(rows.tolist()):
                values = texts[j * width : (j + 1) * width]
                fh.write(f'{sep}  "{keys[k]}": [\n    ' + ",\n    ".join(values) + "\n  ]")
                sep = ",\n"
        fh.write("\n}\n")


_PAIRS_HEADER = ("x_id", "y_id", "class", "ratio", "lower_slack", "upper_slack")


def _write_pairs_csv(path: str, dist: DistortionReport) -> None:
    """One row per pair, as csv.writer writes ids, kinds and float reprs
    (none needs quoting), from the report's pair columns a block of rows at
    a time, each distinct float formatted once. The report must have kept
    its pair table (distortion_report's keep_pairs)."""
    pairs = dist.pair_checks
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_PAIRS_HEADER) + "\r\n")
        for rows in row_blocks(len(pairs), len(_PAIRS_HEADER)):
            ids = (pairs.x_id[rows].tolist(), pairs.y_id[rows].tolist())
            columns = (pairs.ratio, pairs.lower_slack, pairs.upper_slack)
            floats = (_float_texts(c[rows]) for c in columns)
            table = zip(*ids, pairs.kinds(rows), *floats)
            fh.write("".join([f"{x},{y},{k},{r},{lo},{hi}\r\n" for x, y, k, r, lo, hi in table]))


def run_pipeline(cfg: RunConfig, tolerance: float = 1e-9):
    """schedule -> points -> decomposition -> certified bank -> selection ->
    glue -> sweep, with the time of each stage under `timings`.

    The certification vectors (every pair difference among them) live only
    while build_bank certifies, and the decomposition only until selection,
    so neither is held through the sweep. The sweep keeps its table of every
    judged pair only when a pairs CSV is to be written from it."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal t0
        t1 = time.perf_counter()
        timings[stage] = t1 - t0
        t0 = t1

    sched = build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    lap("schedule")
    if cfg.points is not None:
        pts = cfg.points
    else:
        gen = cfg.generator
        pts = generate_annular(
            gen["seed"], sched, gen["per_level"], cfg.source.dim, gen["placement"], cfg.source.norm
        )
    lap("generate")
    decomp = decompose(pts, sched)
    lap("decompose")
    bank = build_bank(
        cfg.strategy,
        cfg.source,
        cfg.target,
        cfg.params.gamma,
        cfg.bank_count,
        _certify_vectors(cfg, pts, decomp),
    )
    lap("certify")
    selection = select_subsequence(bank, decomp, cfg.params.zeta)
    del decomp
    lap("select")
    g = GlueEmbedding(sched, bank, selection)
    dist = distortion_report(g, pts, tol=tolerance, keep_pairs=cfg.pairs_csv_path is not None)
    lap("sweep")

    report = _report_dict(cfg, sched, bank, selection, dist)
    report["timings"] = timings
    return report, dist, g, pts


def _written(key: str, write, path: str, *payload) -> bool:
    """write(path, *payload); False, with a config error naming key, when the
    file cannot be written."""
    try:
        write(path, *payload)
    except OSError as exc:
        print(f"config error: {key}: {exc}", file=sys.stderr)
        return False
    return True


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
    if not (0.0 <= args.tolerance < math.inf):
        print(
            f"config error: --tolerance must be finite and >= 0, got {args.tolerance!r}",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = parse_config(raw)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if cfg.generator is None:
            given = "file" if "file" in cfg.raw["points"] else "inline"
            print(
                f"config error: --seed: the points come from points.{given}; "
                "only points.generator takes a seed",
                file=sys.stderr,
            )
            return 2
        cfg.generator["seed"] = args.seed
    report_key = "--out" if args.out is not None else "output.report"
    try:
        report_path = cfg.report_path if args.out is None else _output_path(args.out)
    except ValueError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
    try:
        report, dist, _, pts = run_pipeline(cfg, tolerance=args.tolerance)
    except (BankExhausted, CertificationFailed, BoundViolated, NonPositiveLowerBound) as exc:
        failure = {
            "config": cfg.raw,
            "status": type(exc).__name__,
            "error": str(exc),
        }
        if report_path and not _written(report_key, _write_json, report_path, failure):
            return 2
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except SpiralGlueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outputs = (
        (report_key, _write_json, report_path, report),
        ("output.pairs_csv", _write_pairs_csv, cfg.pairs_csv_path, dist),
        ("output.images", _write_images, cfg.images_path, pts.ids, dist.images),
    )
    for key, write, path, *payload in outputs:
        if path and not _written(key, write, path, *payload):
            return 2
    print(
        f"distortion {dist.distortion!r} <= bound {dist.bounds.ratio!r} "
        f"over {sum(c.count for c in dist.by_class.values())} pairs"
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


def _schedule_from_args(args) -> RadiiSchedule:
    params = Params(args.eps, args.delta, args.gamma, args.zeta)
    return build_schedule(params, args.r1, args.levels, args.margin)


def cmd_weights(args) -> int:
    try:
        ts, table = weight_grid(_schedule_from_args(args), args.grid)
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
        pts = generate_annular(
            args.seed, _schedule_from_args(args), args.per_level, args.dim, args.placement
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
    p.add_argument("--placement", choices=PLACEMENTS, default="mixed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_points)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
