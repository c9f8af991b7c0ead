"""Batch front end: configure, run the full pipeline, and emit reports.

Commands: bounds, run, theory, weights, gen-points. Reports are JSON with all
floats at full precision; timing data is isolated under a single key so that
runs with identical configs and seeds produce byte-identical reports once
timings are masked.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from itertools import islice

import numpy as np

from . import __version__
from .bank import (
    BankStrategy,
    BlockShift,
    QuadratureL2toL1,
    UserMatrices,
    blend_threshold,
    build_bank,
    select_subsequence,
)
from .errors import (
    BankExhausted,
    BoundViolated,
    CertificationFailed,
    DimensionMismatch,
    FloatRangeExceeded,
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
    pair_blocks,
    save_points,
)
from .schedule import (
    Params,
    RadiiSchedule,
    build_schedule,
    level_step,
    schedule_to_dict,
    weight_grid,
)
from .spaces import (
    Lp,
    NormSpec,
    RowBlocks,
    Space,
    norm_from_dict,
    pair_differences,
    row_blocks,
    space_to_dict,
)
from .verify import (
    DEFAULT_TOL,
    DistortionReport,
    PairTable,
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
# their hulls, but the target width sets the width of every image a run forms.
# It bounds, before they are formed, the random certification rows, the
# generated points and the grids of `weights` and `theory` too (_bounded)
MAX_BANK_ELEMENTS = 1 << 27


def _bounded(key: str, what: str, elements: int) -> None:
    """Raise ValueError naming key if what holds more than MAX_BANK_ELEMENTS."""
    if elements > MAX_BANK_ELEMENTS:
        raise ValueError(f"{key}: {what} hold {elements} elements, more than {MAX_BANK_ELEMENTS}")


def _at_least(flag: str, value: int, least: int) -> None:
    """Raise ValueError naming flag if value is below least."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


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
    except (TypeError, ValueError, KeyError, OSError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _flag(flag: str, convert, value):
    """convert(value) for a command-line flag; a rejected value raises
    ValueError naming the flag, as _read names a config key."""
    return _read({flag: value}, "", flag, convert)


def _read_norm(section: dict, path: str, *default) -> NormSpec:
    """The norm object at path.norm, or default[0] when absent and given; it
    must hold exactly the keys of its kind (an unknown kind is reported as
    such)."""
    raw = section.get("norm")
    kind = raw.get("norm") if isinstance(raw, dict) else None
    if f"norm={kind}" in _CONFIG_KEYS:
        spec = _section(section, f"{path}.norm", f"norm={kind}")
        for key in _CONFIG_KEYS[f"norm={kind}"].split():
            if key not in spec:
                raise ValueError(f"{path}.norm.{key}: missing")
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


# the converters of the params keys and of eps_target and schedule.r1
_UNIT = _real("in (0, 1)", lambda v: 0.0 < v < 1.0)
_POSITIVE = _real("> 0", lambda v: v > 0.0)


def _margin(delta: float):
    """A converter of schedule.margin: a real >= 0 whose level step at delta
    is finite."""
    real = _real(">= 0", lambda v: v >= 0.0)

    def convert(value) -> float:
        margin = real(value)
        level_step(delta, margin)
        return margin

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
    """Space(dim, spec): a norm whose shape does not fit the dimension is
    named by path, and max-abs functionals that do not span the space (dim
    is read >= 1, so no other ValueError arises) by path.norm.functionals."""
    try:
        return Space(dim, spec)
    except DimensionMismatch as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}.norm.functionals: {exc}") from None


def _inline_rows(rows, dim: int):
    """The inline points' rows, each list of which must hold dim
    coordinates, so that a ragged list names its first bad row."""
    if isinstance(rows, list):
        for k, row in enumerate(rows):
            if isinstance(row, list) and len(row) != dim:
                raise ValueError(f"row {k} has {len(row)} coordinates, expected {dim}")
    return rows


def _points_in(path: str, source: Space) -> LocallyFiniteSet:
    """The point set saved at path, which must lie in the source space."""
    pts = load_points(path)
    if pts.space != source:
        raise ValueError(
            f"the points' space {space_to_dict(pts.space)} differs from source "
            f"{space_to_dict(source)}"
        )
    return pts


def _two_or_more(pts: LocallyFiniteSet) -> LocallyFiniteSet:
    """pts, which must hold at least two points: the sweep judges pairs."""
    if len(pts) < 2:
        raise ValueError(f"needs at least two points, got {len(pts)}")
    return pts


def _user_matrices(matrices, source: Space) -> UserMatrices:
    """The caller's matrices: a non-empty list of finite 2-d arrays of one
    shape, each with a column per source coordinate."""
    strategy = UserMatrices(tuple(matrices))
    if not strategy.matrices or strategy.matrices[0].ndim != 2:
        raise ValueError("expected a non-empty list of 2-d matrices")
    want = (strategy.matrices[0].shape[0], source.dim)
    bad = next((m.shape for m in strategy.matrices if m.shape != want), None)
    if bad is not None:
        raise ValueError(f"matrix shape {bad} != {want}")
    bad = next((k for k, m in enumerate(strategy.matrices) if not np.all(np.isfinite(m))), None)
    if bad is not None:
        raise ValueError(f"matrix {bad} has non-finite entries")
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
        params = Params(*(_read(p, "params", k, _UNIT) for k in _CONFIG_KEYS["params"].split()))
    else:
        params = solve_params(_read(raw, "", "eps_target", _POSITIVE))
    source_cfg = _section(raw, "source")
    source = _space(
        "source", _read(source_cfg, "source", "dim", _integer(1)), _read_norm(source_cfg, "source")
    )
    sched_cfg = _section(raw, "schedule")
    r1 = _read(sched_cfg, "schedule", "r1", _POSITIVE, 1.0)
    levels = _read(sched_cfg, "schedule", "levels", _integer(1), 3)
    margin = _read(sched_cfg, "schedule", "margin", _margin(params.delta), 0.01)

    bank_cfg = _section(raw, "bank")
    strategy, block = _build_strategy(bank_cfg, source)
    count = _read(bank_cfg, "bank", "count", _integer(2), levels + 2)
    # selection takes one map per level and one more
    if count < levels + 1:
        raise ValueError(f"bank.count: {count} < schedule.levels + 1 = {levels + 1}")
    certify_random = _read(bank_cfg, "bank", "certify_random", _integer(0), 32)
    _bounded(
        "bank.certify_random", f"{certify_random} rows of {source.dim}", certify_random * source.dim
    )
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
    if isinstance(strategy, QuadratureL2toL1):
        for path, space, p in (("source", source, 2.0), ("target", target, 1.0)):
            if space.norm != Lp(p):
                raise ValueError(f"{path}.norm: quadrature_l2_to_l1 requires an l{p:g} norm")

    pts_cfg = _section(raw, "points")
    given = [key for key in ("file", "inline", "generator") if key in pts_cfg]
    if len(given) != 1:
        raise ValueError(f"points: give exactly one of file, inline, generator; got {given}")
    points = None
    generator = None
    if "file" in pts_cfg:
        points = _read(
            pts_cfg, "points", "file", lambda path: _two_or_more(_points_in(path, source))
        )
    elif "inline" in pts_cfg:
        points = _read(
            pts_cfg,
            "points",
            "inline",
            lambda rows: _two_or_more(make_point_set(source, _inline_rows(rows, source.dim))),
        )
    else:
        gen = _section(pts_cfg, "points.generator")
        generator = {
            "seed": _read(gen, "points.generator", "seed", _integer(0), 0),
            "per_level": _read(gen, "points.generator", "per_level", _integer(1), 10),
            "placement": _read(gen, "points.generator", "placement", _placement, "mixed"),
        }
        key, n = "points.generator.per_level", 1 + levels * generator["per_level"]
        _bounded(key, f"{n} points of {source.dim}", n * source.dim)
    if points is not None:
        key, n = f"points.{given[0]}", len(points)
    # decompose keeps each level's distinct directions and checks, up to one
    # per pair, and certification and the sweep read every pair
    _bounded(key, f"the pairs of {n} points", n * (n - 1) // 2)

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
        certify_random=certify_random,
        certify_seed=_read(bank_cfg, "bank", "certify_seed", _integer(0), 0),
        points=points,
        generator=generator,
        report_path=_read(out_cfg, "output", "report", _output_path, None),
        pairs_csv_path=_read(out_cfg, "output", "pairs_csv", _output_path, None),
        images_path=_read(out_cfg, "output", "images", _output_path, None),
    )


def _certify_vectors(cfg: RunConfig, pts: LocallyFiniteSet, decomp) -> RowBlocks:
    """All points, all pairwise differences (a < b, row-major), all recorded
    directions, plus seeded random unit-scale vectors, as (k, dim) blocks
    formed only as they are read: len() counts every row, and no array of
    them all is formed. Each part yields its own row blocks of half the
    element budget in turn (row_blocks at width 2 * dim), so no block holds
    rows of two parts: views of the points, the differences of each
    pair_blocks block (pair_differences, the sweep's kernel), views of each
    level's directions, and the random rows, drawn a row block at a time:
    draws of k1 and then k2 rows consume the generator exactly as one draw
    of k1 + k2 rows."""
    coords = pts.coords
    n, dim = coords.shape

    def blocks():
        for block in row_blocks(n, 2 * dim):
            yield coords[block]
        for _, a, b in pair_blocks(n, 2 * dim):
            yield pair_differences(coords, a, b)
        for level in decomp.directions:
            for block in row_blocks(len(level), 2 * dim):
                yield level[block]
        rng = np.random.default_rng(cfg.certify_seed)
        for block in row_blocks(cfg.certify_random, 2 * dim):
            yield rng.standard_normal((block.stop - block.start, dim))

    dirs = sum(map(len, decomp.directions))
    return RowBlocks(n + n * (n - 1) // 2 + dirs + cfg.certify_random, blocks)


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
        "selection": asdict(selection),
        "distortion": {
            "min_ratio": dist.min_ratio,
            "max_ratio": dist.max_ratio,
            "distortion": dist.distortion,
            "witness_min": list(dist.witness_min),
            "witness_max": list(dist.witness_max),
            "bounds": asdict(dist.bounds),
            "by_class": {k: asdict(v) for k, v in sorted(dist.by_class.items())},
        },
        "status": "ok",
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# the JSON spelling of the non-finite floats, as _write_json writes them
_JSON_NON_FINITE = {"inf": "null", "-inf": "null", "nan": "NaN"}


def _texts(values: np.ndarray, spelling: dict | None = None) -> list[str]:
    """repr(v), or spelling[repr(v)] where given, for each value v of a 1-d
    array of 64-bit floats or integers, in order: each distinct bit pattern
    (np.unique on the uint64 view, so -0.0 and 0.0 stay apart) is formatted
    once and gathered back."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = list(map(repr, bits.view(values.dtype).tolist()))
    if spelling:
        texts = [spelling.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_images(path: str, ids, images: np.ndarray, pad: tuple[int, int]) -> None:
    """The images file, {str(id): image row}, with the bytes _write_json
    gives (keys sorted as strings, so "10" before "9"; inf as null, NaN as
    NaN), written one row at a time: json.dump with an indent runs the
    stdlib's pure-Python encoder. Each row of images is written with
    pad[0] +0.0 entries before it and pad[1] after it, so that a report's
    images on its image columns give the full-width rows. The rows are
    zero-padded and formatted a block at a time, each distinct float of the
    block once. A block is counted as eight times its floats (row_blocks of
    width 8 * width, the padded width), since a float's text and the list
    entries that hold it take several times its 8 bytes."""
    keys = [str(i) for i in ids]
    with open(path, "w", encoding="utf-8") as fh:
        if not keys:
            fh.write("{}\n")
            return
        fh.write("{")
        sep = "\n"
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
        width = pad[0] + images.shape[1] + pad[1]
        for block in row_blocks(len(order), 8 * width):
            rows = order[block]
            texts = _texts(np.pad(images[rows], ((0, 0), pad)).ravel(), _JSON_NON_FINITE)
            for j, k in enumerate(rows.tolist()):
                values = texts[j * width : (j + 1) * width]
                fh.write(f'{sep}  "{keys[k]}": [\n    ' + ",\n    ".join(values) + "\n  ]")
                sep = ",\n"
        fh.write("\n}\n")


_PAIRS_HEADER = b"x_id,y_id,class,ratio,lower_slack,upper_slack\r\n"


# the CSV lines that _PairsSpool joins, encodes and writes at once
_SPOOL_LINES = 512


class _PairsSpool:
    """The rows of the pairs CSV, spooled during the sweep. Called as the
    sweep's on_block, it formats each judged block's pairs as CSV lines, as
    csv.writer writes ids, kinds and float reprs (none needs quoting), each
    distinct id and float of the block once (one _texts call per column of
    the block). It joins, encodes and appends the lines _SPOOL_LINES at a
    time, so that the text of a whole block's lines is never formed, to an
    anonymous temporary file (in tempfile's directory), which is gone once
    closed or once the process ends. So the sweep keeps no array of one
    entry per pair, and nothing is written at the CSV's path until
    _write_pairs_csv copies the spool at the CSV's turn among the outputs.
    An OSError of the spool is kept and raised there."""

    def __init__(self):
        self.error: OSError | None = None
        self.fh = None
        try:
            self.fh = tempfile.TemporaryFile()
        except OSError as exc:
            self.error = exc

    def __call__(self, table: PairTable, rows: slice) -> None:
        k = rows.stop - rows.start
        if self.error is not None or not k:
            return
        # each distinct id's text once, for both id columns
        ids = _texts(np.append(table.x_id[rows], table.y_id[rows]))
        columns = (table.ratio[rows], table.lower_slack[rows], table.upper_slack[rows])
        lines = map(",".join, zip(ids[:k], ids[k:], table.kinds(rows), *map(_texts, columns)))
        try:
            for _ in range(0, k, _SPOOL_LINES):
                piece = "\r\n".join(islice(lines, _SPOOL_LINES)) + "\r\n"
                self.fh.write(piece.encode())
        except OSError as exc:
            self.error = exc

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _write_pairs_csv(path: str, pairs: _PairsSpool) -> None:
    """The header and then the rows spooled during the sweep, copied as they
    are. A spool error is raised before path is opened; path is opened and
    written like every other output, so a device, a FIFO or a link there is
    written through."""
    if pairs.error is not None:
        raise pairs.error
    pairs.fh.seek(0)
    with open(path, "wb") as fh:
        fh.write(_PAIRS_HEADER)
        shutil.copyfileobj(pairs.fh, fh)


def run_pipeline(cfg: RunConfig, tolerance: float = DEFAULT_TOL, on_block=None):
    """schedule -> points -> decomposition -> certified bank -> selection ->
    glue -> sweep, with the time of each stage under `timings`.

    No stage holds an array of one row per pair or per certification
    vector. build_bank reads the certification vectors once, a block at a
    time as _certify_vectors forms them, and keeps only each map's extreme
    ratios; the decomposition lives only until selection; the sweep keeps
    no pair table and passes each judged block of pairs to on_block, when
    given (see distortion_report), which is how `run` spools the rows of
    its pairs CSV as text (_PairsSpool)."""
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
    dist = distortion_report(g, pts, tol=tolerance, on_block=on_block)
    lap("sweep")

    report = _report_dict(cfg, sched, bank, selection, dist)
    report["timings"] = timings
    return report, dist, g, pts


def _written(where: str, write, *args) -> bool:
    """write(*args), which writes an output file; False, with the error
    printed after where (`config error: output.report`, say), when the file
    cannot be written."""
    try:
        write(*args)
    except OSError as exc:
        print(f"{where}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_bounds(args) -> int:
    try:
        if args.target is not None:
            params = solve_params(_flag("--target", _POSITIVE, args.target))
        else:
            params = _params_from_flags(args)
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


def _with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """cfg with its generator seed replaced, in the parsed generator and in
    the raw config the report records, so that a report's config reruns the
    run; the caller's dicts are left as they were."""
    raw_points = cfg.raw["points"]
    raw_generator = {**raw_points["generator"], "seed": seed}
    raw = {**cfg.raw, "points": {**raw_points, "generator": raw_generator}}
    return replace(cfg, raw=raw, generator={**cfg.generator, "seed": seed})


def cmd_run(args) -> int:
    try:
        if not (0.0 <= args.tolerance < math.inf):
            raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance!r}")
        if args.seed is not None:
            _flag("--seed", _integer(0), args.seed)
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = parse_config(raw)
        if args.seed is not None:
            if cfg.generator is None:
                given = "file" if "file" in cfg.raw["points"] else "inline"
                raise ValueError(
                    f"--seed: the points come from points.{given}; "
                    "only points.generator takes a seed"
                )
            cfg = _with_seed(cfg, args.seed)
        report_key, report_path = "output.report", cfg.report_path
        if args.out is not None:
            report_key, report_path = "--out", _flag("--out", _output_path, args.out)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    pairs = _PairsSpool() if cfg.pairs_csv_path else None
    try:
        return _run(cfg, args.tolerance, report_key, report_path, pairs)
    finally:
        if pairs is not None:
            pairs.close()


def _run(cfg: RunConfig, tolerance: float, report_key: str, report_path, pairs) -> int:
    """cmd_run's pipeline and outputs, in order: the report, the pairs CSV
    (spooled during the sweep by pairs, a _PairsSpool, and written from it
    here) and the images."""
    try:
        report, dist, g, pts = run_pipeline(cfg, tolerance=tolerance, on_block=pairs)
    except (BankExhausted, CertificationFailed, BoundViolated, NonPositiveLowerBound) as exc:
        failure = {
            "config": cfg.raw,
            "status": type(exc).__name__,
            "error": str(exc),
        }
        if not isinstance(exc, NonPositiveLowerBound):
            failure["failure"] = exc.fields()
        where = f"config error: {report_key}"
        if report_path and not _written(where, _write_json, report_path, failure):
            return 2
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except SpiralGlueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except FloatRangeExceeded as exc:
        print(f"config error: schedule.levels: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cols = dist.image_columns
    pad = (cols.start, g.target.dim - cols.stop)
    outputs = (
        (report_key, _write_json, report_path, report),
        ("output.pairs_csv", _write_pairs_csv, cfg.pairs_csv_path, pairs),
        ("output.images", _write_images, cfg.images_path, pts.ids, dist.images, pad),
    )
    for key, write, path, *payload in outputs:
        if path and not _written(f"config error: {key}", write, path, *payload):
            return 2
    print(
        f"distortion {dist.distortion!r} <= bound {dist.bounds.ratio!r} "
        f"over {sum(c.count for c in dist.by_class.values())} pairs"
    )
    return 0


def _spreading_verdict(grid: int) -> tuple[bool, str]:
    """Whether the spreading bound's minimum on the grid is sqrt(2)/3, and
    its detail line; a grid of fewer than 3 points raises ValueError."""
    try:
        value, arg = spreading_bound_minimum(grid)
    except SpiralGlueError as exc:
        return False, str(exc)
    return abs(value - blend_threshold(0.0)) <= 1e-6, f"minimum {value!r} at {arg!r}"


def cmd_theory(args) -> int:
    # both computations run before any verdict is printed, so that a bad
    # --grid exits 2 alone
    try:
        # a verdict over no pairs would pass vacuously
        _at_least("--pairs", args.pairs, 1)
        _flag("--seed", _integer(0), args.seed)
        _at_least("--grid", args.grid, 3)
        _bounded("--grid", f"{args.grid} angles", args.grid)
        good, detail = _spreading_verdict(args.grid)
        fuzz = fuzz_pair_inequalities(args.seed, args.pairs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = good
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


def _params_from_flags(args) -> Params:
    """The Params of --eps, --delta, --gamma and --zeta, each checked as its
    params key is, in that order."""
    keys = _CONFIG_KEYS["params"].split()
    return Params(*(_flag(f"--{k}", _UNIT, getattr(args, k)) for k in keys))


def _schedule_from_args(args) -> RadiiSchedule:
    """The schedule of the flags: the params flags, then --r1, --levels and
    --margin, each checked as its schedule key is. A schedule that the same
    flags build at one level but not at --levels is refused naming
    --levels: past some count, the log radii grow too large to hold a
    ramp's width."""
    params = _params_from_flags(args)
    r1 = _flag("--r1", _POSITIVE, args.r1)
    levels = _flag("--levels", _integer(1), args.levels)
    margin = _flag("--margin", _margin(params.delta), args.margin)
    try:
        return build_schedule(params, r1, levels, margin)
    except ValueError as exc:
        try:
            build_schedule(params, r1, 1, margin)
        except ValueError:
            raise exc from None
        raise ValueError(f"--levels: {exc}") from None


def _write_weights(path: str, ts, table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mu_{k}" for k in range(1, table.shape[1] + 1)])
        for t, row in zip(ts, table):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def cmd_weights(args) -> int:
    try:
        _flag("--out", _output_path, args.out)
        sched = _schedule_from_args(args)
        width = sched.levels + 2  # the radius and the levels + 1 weights
        _at_least("--grid", args.grid, 2)
        _bounded("--grid", f"{args.grid} rows of {width}", args.grid * width)
        ts, table = weight_grid(sched, args.grid)
    except FloatRangeExceeded as exc:
        print(f"error: --levels: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _written("error: --out", _write_weights, args.out, ts, table):
        return 2
    print(f"wrote {len(ts)} rows x {table.shape[1]} weights to {args.out}")
    return 0


def cmd_gen_points(args) -> int:
    try:
        _flag("--out", _output_path, args.out)
        _flag("--seed", _integer(0), args.seed)
        sched = _schedule_from_args(args)
        _at_least("--per-level", args.per_level, 1)
        _flag("--dim", _integer(1), args.dim)
        n = 1 + sched.levels * args.per_level
        _bounded("--per-level", f"{n} points of {args.dim}", n * args.dim)
        pts = generate_annular(args.seed, sched, args.per_level, args.dim, args.placement)
    except FloatRangeExceeded as exc:
        print(f"error: --levels: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _written("error: --out", save_points, pts, args.out):
        return 2
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def _add_param_flags(p):
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--zeta", type=float, default=0.01)


def _add_schedule_flags(p):
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--margin", type=float, default=0.01)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser is a cyclic
    structure, so one built per call would linger as garbage until the
    cyclic collector runs, at a moment set by allocation counts."""
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
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
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
