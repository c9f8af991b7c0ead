"""Banks of certified near-isometric linear maps and subsequence selection.

Each map in a bank satisfies the sandwich

    |v| <= |psi_n(v)| <= (1 + eps_n) |v|

on a designated finite certification set, with the per-map slacks eps_n split
uniformly so that prod(1 + eps_n) <= 1 + gamma. Downstream inequalities only
ever evaluate the maps on certification vectors and their two-term blends, so
finite certification is exactly as strong as the uses require. The ratios are
screened with one matrix product per block (`spaces.screen_norms`), and every
ratio that can be a map's lowest or highest is taken from the reference
kernel (`spaces.image_norms`), so the margins are those of the reference
kernel on every row.

The subsequence selection replaces an infinite extraction argument with a
bounded greedy scan over index pairs. The scan keeps each level's first
passing pair, so when it finds no admissible next index it raises
BankExhausted, though another subsequence of the bank may pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import BankExhausted, CertificationFailed, DimensionMismatch, NotStabilized
from .pointset import AnnulusDecomposition
# blend_apply is not called here, but bench/spans.py wraps bank.blend_apply
from .spaces import (  # noqa: F401
    LinearMap,
    Lp,
    RowBlocks,
    Space,
    apply,
    as_rows,
    blend_apply,
    direction_gain,
    image_norms,
    norm,
    norms,
    screen_bound,
    screen_norms,
)

_TOL = 1e-12
_MAX_TUPLES = 20000


@dataclass(frozen=True)
class BlockShift:
    """psi_n writes the source coordinates into the n-th disjoint block of the target."""

    block_width: int | None = None


@dataclass(frozen=True)
class QuadratureL2toL1:
    """psi_n maps an l2 source into an l1 block via absolute-value quadrature.

    In dimension 2 the directions are equally spaced (rotated per map by a
    seeded offset) and the scale is calibrated in closed form, giving a
    certified ratio inside [1, sec(pi/directions)]. In higher dimension the
    directions are seeded samples of the unit sphere and the scale comes from
    a dense probe; certification may then fail honestly.
    """

    directions: int = 64
    seed: int = 0


@dataclass(frozen=True, eq=False)
class UserMatrices:
    """Caller-provided matrices, certified like any other strategy."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(np.asarray(m, dtype=float) for m in self.matrices)
        )


BankStrategy = Union[BlockShift, QuadratureL2toL1, UserMatrices]


@dataclass(frozen=True, eq=False)
class EmbeddingBank:
    """An ordered family of certified near-isometries with a shared budget."""

    maps: tuple[LinearMap, ...]
    eps_n: tuple[float, ...]
    gamma: float
    strategy: BankStrategy
    cert_lower_margin: tuple[float, ...]  # min ratio - 1, per map
    cert_upper_margin: tuple[float, ...]  # (1 + eps_n) - max ratio, per map

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def source(self) -> Space:
        return self.maps[0].source

    @property
    def target(self) -> Space:
        return self.maps[0].target


def _block_shift_maps(source: Space, target: Space, count: int, width: int | None):
    """psi_n as the identity band at target row n * width, built from the band alone."""
    bw = source.dim if width is None else int(width)
    if bw < source.dim:
        raise DimensionMismatch(f"block width {bw} smaller than source dim {source.dim}")
    if target.dim < count * bw:
        raise DimensionMismatch(
            f"target dim {target.dim} cannot hold {count} blocks of width {bw}"
        )
    eye = np.eye(source.dim)
    return [LinearMap.from_band(eye, n * bw, source, target) for n in range(count)]


def _quadrature_maps(source: Space, target: Space, count: int, spec: QuadratureL2toL1):
    """psi_n as the band of `directions` quadrature rows at target row
    n * directions, built from the band alone."""
    if source.norm != Lp(2.0):
        raise ValueError("quadrature strategy requires an l2 source norm")
    if target.norm != Lp(1.0):
        raise ValueError("quadrature strategy requires an l1 target norm")
    nd = spec.directions
    if nd < 2:
        raise ValueError("directions must be >= 2")
    if target.dim < count * nd:
        raise DimensionMismatch(
            f"target dim {target.dim} cannot hold {count} blocks of {nd} directions"
        )
    d = source.dim
    rng = np.random.default_rng(spec.seed)
    maps = []
    for n in range(count):
        if d == 1:
            rows = np.full((nd, 1), 1.0 / nd)
        elif d == 2:
            offset = rng.uniform(0.0, 2.0 * math.pi)
            phi = offset + 2.0 * math.pi * np.arange(nd) / nd
            # closed-form calibration: the quadrature sum of |cos| over equally
            # spaced angles lies in [ (pi/nd) cot(pi/nd), (pi/nd)/sin(pi/nd) ];
            # dividing by the minimum pins the certified ratio to [1, sec(pi/nd)]
            w = math.tan(math.pi / nd) / 2.0
            rows = w * np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            theta = rng.standard_normal((nd, d))
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            probe = rng.standard_normal((4096, d))
            probe /= np.linalg.norm(probe, axis=1, keepdims=True)
            sums = np.abs(probe @ theta.T).sum(axis=1)
            rows = ((1.0 + 1e-9) / float(sums.min())) * theta
        maps.append(LinearMap.from_band(rows, n * nd, source, target))
    return maps


def build_bank(
    strategy: BankStrategy,
    source: Space,
    target: Space,
    gamma: float,
    count: int,
    certify_set: Sequence | RowBlocks,
) -> EmbeddingBank:
    """Construct `count` maps and certify each one on the given vector set:
    rows as an array or a sequence of vectors, one block, or a RowBlocks
    stream of them, read once, a block at a time.

    The per-map slack is the uniform split eps_n = (1+gamma)^(1/count) - 1.
    Raises CertificationFailed with the worst offending vector if any map
    falls outside its sandwich; its index counts the nonzero vectors.

    Certification is one fold over the blocks: per block, the source norms,
    the nonzero rows (gathered only when some row is zero), and per map the
    ratios norm(target, lin v) / norm(source, v), of which each map keeps
    its lowest and highest with the index of the first nonzero row that
    reaches it. Every kernel is row-wise, so the margins and the first
    worst vector are those of evaluating every vector at once by
    image_norms. The maps are then checked in map order. Only the extremes
    are kept, never an image or a row of an earlier block.

    A map screens a block's ratios by screen_norms, one matrix product per
    row block, and images again by image_norms only the rows whose ratio
    can be the block's lowest or highest (see _certify_ratios): none for a
    monomial hull, such as a block-shift band, whose screen has the
    reference bits. Max-abs functionals on either side image every row by
    image_norms.

    Maps whose _image_key is equal have the same ratios on every row, so
    only the first of them takes the rows, and the others take its
    extremes: a block-shift bank into an lp target screens them once. A
    later map's margins are then the same floats, and it cannot fail where
    its twin passed, so the failing (map, vector, ratio) is the one that
    imaging every map would raise.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    blocks = certify_set if isinstance(certify_set, RowBlocks) else [certify_set]

    if isinstance(strategy, BlockShift):
        maps = _block_shift_maps(source, target, count, strategy.block_width)
    elif isinstance(strategy, QuadratureL2toL1):
        maps = _quadrature_maps(source, target, count, strategy)
    else:
        if len(strategy.matrices) < count:
            raise ValueError(f"strategy provides {len(strategy.matrices)} < count {count} maps")
        maps = [LinearMap(m, source, target) for m in strategy.matrices[:count]]

    keys = [_image_key(lin) for lin in maps]
    imaging = {}  # per _image_key, the first map that has it, and its screen_bound
    for key, lin in zip(keys, maps):
        if key not in imaging:
            imaging[key] = lin, screen_bound(lin)
    # per _image_key: [lowest ratio, its index, highest ratio, its index]
    extremes = {}
    done = 0  # the nonzero rows of earlier blocks
    for block in blocks:
        block = as_rows(block, source.dim)
        source_norms = norms(source, block)
        nonzero = source_norms > 0.0
        if not nonzero.all():
            block, source_norms = block[nonzero], source_norms[nonzero]
        if not len(block):
            continue
        for key, (lin, bound) in imaging.items():
            ratios = _certify_ratios(lin, bound, block, source_norms)
            k_lo, k_hi = int(ratios.argmin()), int(ratios.argmax())
            lo, hi = float(ratios[k_lo]), float(ratios[k_hi])
            del ratios  # not alive while the next map images
            kept = extremes.setdefault(key, [lo, done + k_lo, hi, done + k_hi])
            # a block's extreme replaces the kept one when strictly beyond
            # it, or NaN where the kept one is not: the first of equal
            # ratios and the first NaN win, as argmin and argmax over every
            # ratio at once have it
            if kept[0] == kept[0] and not kept[0] <= lo:
                kept[:2] = lo, done + k_lo
            if kept[2] == kept[2] and not kept[2] >= hi:
                kept[2:] = hi, done + k_hi
        done += len(block)
    if not done:
        raise ValueError("certify_set must contain at least one nonzero vector")

    eps_n = (1.0 + gamma) ** (1.0 / count) - 1.0
    lo_margins = []
    hi_margins = []
    for n, key in enumerate(keys):
        lo, k_lo, hi, k_hi = extremes[key]
        # written so that a NaN ratio fails, as no comparison with it holds
        if not lo >= 1.0 - _TOL:
            raise CertificationFailed(n, k_lo, lo)
        if not hi <= (1.0 + eps_n) * (1.0 + _TOL):
            raise CertificationFailed(n, k_hi, hi)
        lo_margins.append(lo - 1.0)
        hi_margins.append((1.0 + eps_n) - hi)
    slots = (eps_n,) * count
    assert np.prod(1.0 + np.array(slots)) <= (1.0 + gamma) * (1.0 + _TOL)
    return EmbeddingBank(tuple(maps), slots, gamma, strategy, tuple(lo_margins), tuple(hi_margins))


def _certify_ratios(lin: LinearMap, bound, block: np.ndarray, source_norms: np.ndarray):
    """The ratios of the block's rows under lin, each equal to
    image_norms(lin, row) / its source norm wherever it can be the block's
    lowest or highest (the first of equal ratios and the first NaN
    included), and above the lowest and below the highest elsewhere: so
    argmin and argmax give the reference extremes and their indices.

    Without a screen_bound, every row is imaged by image_norms. Otherwise
    screen_norms gives the screened ratios s, within delta of the reference
    ratios r on every row that the bound covers: its source norm lies in
    [low, high], and then r is finite. With delta = 0 (a monomial hull) s
    is r. Otherwise image_norms images again each row that the bound does
    not cover or whose s is not finite, and each row with s <= lo + 2 delta
    or s >= hi - 2 delta, lo and hi the least and largest s of the covered
    rows. Every row that reaches the least reference ratio r* is imaged
    again: its s <= r* + delta <= lo + 2 delta, since r* is at most the
    reference ratio of lo's row, itself at most lo + delta. Every row not
    imaged again has s > lo + 2 delta >= r* + delta > r*, and is not NaN.
    The highest is the mirror image."""
    if bound is None:
        return image_norms(lin, block) / source_norms
    ratios = screen_norms(lin, block) / source_norms
    delta, low, high = bound
    if delta:
        bounded = np.isfinite(ratios) & (source_norms >= low) & (source_norms <= high)
        again = ~bounded
        if bounded.any():
            screened = ratios[bounded]
            again |= ratios <= screened.min() + 2 * delta
            again |= ratios >= screened.max() - 2 * delta
            del screened
        at = np.flatnonzero(again)
        ratios[at] = image_norms(lin, block[at]) / source_norms[at]
    return ratios


def _image_key(lin: LinearMap) -> tuple:
    """What the bits of image_norms(lin, X) and screen_norms(lin, X), and
    screen_bound(lin), depend on beside X, for the maps of one bank (one
    source, one target): the hull's shape and bytes (so -0.0 and 0.0
    differ), and its first target row unless the target norm is lp, whose
    norm of a hull product reads no position. A weighted lp norm reads the
    hull's slice of the weights, and max-abs functionals read every
    column."""
    at = None if isinstance(lin.target.norm, Lp) else lin.rows.start
    return lin.hull.shape, lin.hull.tobytes(), at


def spreading_limit_estimate(
    bank: EmbeddingBank,
    u,
    a: Sequence[float],
    tol: float = 1e-9,
    max_start: int | None = None,
) -> float:
    """Estimate the stable value of |sum_k a_k psi_{n_k}(u)| over late index tuples.

    Scans every increasing index tuple whose first index is at least nu, for
    nu growing up to max_start, and returns the window midpoint once the
    window's oscillation drops below tol. Raises NotStabilized when the finite
    bank never settles at this tolerance.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (bank.source.dim,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected ({bank.source.dim},)")
    nu_norm = norm(bank.source, u)
    if abs(nu_norm - 1.0) > 1e-9:
        raise ValueError(f"u must be a unit vector, got norm {nu_norm!r}")
    coeff = np.asarray(a, dtype=float)
    nz = np.nonzero(coeff)[0]
    if nz.size == 0:
        raise ValueError("coefficient list needs at least one nonzero entry")
    coeff = coeff[: nz.max() + 1]
    width = coeff.size
    size = bank.size
    if width > size:
        raise ValueError(f"coefficient list longer than the bank ({width} > {size})")
    if max_start is None:
        max_start = size - width + 1
    images = [apply(lin, u) for lin in bank.maps]
    last_osc = math.inf
    for nu in range(1, max_start + 1):
        avail = size - (nu - 1)
        if avail < width:
            break
        n_tuples = math.comb(avail, width)
        if n_tuples > _MAX_TUPLES:
            raise ValueError(
                f"window at start {nu} has {n_tuples} index tuples; "
                f"exhaustive scan capped at {_MAX_TUPLES}"
            )
        vals = [
            norm(bank.target, sum(c * images[k] for c, k in zip(coeff, combo)))
            for combo in itertools.combinations(range(nu - 1, size), width)
        ]
        last_osc = max(vals) - min(vals)
        # a single-tuple window cannot witness stability
        if len(vals) >= 2 and last_osc < tol:
            return 0.5 * (max(vals) + min(vals))
    raise NotStabilized(
        f"oscillation {last_osc!r} still >= tol {tol!r} at start {max_start}"
    )


@dataclass(frozen=True)
class SelectionResult:
    """Chosen bank indices (one per level plus one) and per-level worst margins.

    worst_margins[i] is min over all recorded (direction, angle) checks of the
    achieved blend norm minus the threshold sqrt(2)/(3(1+zeta)); math.inf when
    the level had nothing to check.
    """

    chosen_indices: tuple[int, ...]
    worst_margins: tuple[float, ...]
    zeta: float
    threshold: float


def blend_threshold(zeta: float) -> float:
    """sqrt(2)/(3(1+zeta)): the blend norm selection must reach, and the
    start of every lower bracket in verification."""
    return math.sqrt(2.0) / (3.0 * (1.0 + zeta))


def _level_ok(bank, checks, n_lo, n_hi, threshold):
    """Worst margin of the blend norm over a level's checks for a candidate
    pair, with its (direction, angle, norm); checks holds the level's unit
    directions as rows and one angle per row, judged in one direction_gain
    call. The first of equal worst margins is the witness."""
    units, angles = checks
    if not len(angles):
        return math.inf, None
    vals = direction_gain(angles, units, bank.maps[n_lo], bank.maps[n_hi])
    margins = vals - threshold
    k = int(np.argmin(margins))
    return float(margins[k]), (units[k], float(angles[k]), float(vals[k]))


def select_subsequence(
    bank: EmbeddingBank, decomp: AnnulusDecomposition, zeta: float
) -> SelectionResult:
    """Greedy diagonal search for indices witnessing the blend lower bound.

    Level 1 scans index pairs (n_1, n_2) lexicographically; each later level
    keeps its predecessor and scans only the next index. Raises BankExhausted
    with the worst witness when no candidate passes.
    """
    if zeta < 0.0:
        raise ValueError("zeta must be >= 0")
    m = decomp.levels
    if bank.size < m + 1:
        raise ValueError(f"bank size {bank.size} < levels + 1 = {m + 1}")
    threshold = blend_threshold(zeta)
    # each level's checks with their direction rows, gathered once
    per_level = [(units[k], angle) for units, (k, angle) in zip(decomp.directions, decomp.checks)]

    chosen: list[int] = []
    margins: list[float] = []
    for level in range(1, m + 1):
        if level == 1:
            # the first level fixes two indices at once
            candidates = itertools.combinations(range(bank.size - m + 1), 2)
        else:
            # leave room for the remaining m - level indices
            n_prev = chosen[-1]
            candidates = ((n_prev, n) for n in range(n_prev + 1, bank.size - (m - level)))
        best = (-math.inf, None)
        for pair in candidates:
            worst, item = _level_ok(bank, per_level[level - 1], *pair, threshold)
            if worst >= 0.0:
                break
            if worst > best[0]:
                best = (worst, item)
        else:
            _, item = best
            u, angle, val = item if item is not None else (None, math.nan, -math.inf)
            raise BankExhausted(level, u, angle, val, threshold)
        chosen[level - 1 :] = pair
        margins.append(worst)

    return SelectionResult(tuple(chosen), tuple(margins), float(zeta), threshold)
