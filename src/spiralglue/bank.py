"""Banks of certified near-isometric linear maps and subsequence selection.

Each map in a bank satisfies the sandwich

    |v| <= |psi_n(v)| <= (1 + eps_n) |v|

on a designated finite certification set, with the per-map slacks eps_n split
uniformly so that prod(1 + eps_n) <= 1 + gamma. Downstream inequalities only
ever evaluate the maps on certification vectors and their two-term blends, so
finite certification is exactly as strong as the uses require.

The subsequence selection replaces an infinite extraction argument with a
bounded greedy scan over index pairs; when the bank cannot witness the
required lower bound the search fails loudly instead of degrading.
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
    distinct_rows,
    image_norms,
    norm,
    norms,
    row_blocks,
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
    rows as an array or a sequence of vectors, or a RowBlocks stream of them.

    The per-map slack is the uniform split eps_n = (1+gamma)^(1/count) - 1.
    Raises CertificationFailed with the worst offending vector if any map
    falls outside its sandwich; its index counts the nonzero vectors.

    Each distinct nonzero vector (by bit pattern, see distinct_rows) is
    normed and imaged once per map, in order of first occurrence, so the
    margins and the first worst vector are those of evaluating every vector.
    distinct_rows reads a stream twice, so each iteration must yield the
    same rows; only the distinct rows are kept (see _certify_rows). A map
    images them all in one image_norms call, whose blocks are whole but the
    last.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    rows, first, source_norms = _certify_rows(source, certify_set)

    if isinstance(strategy, BlockShift):
        maps = _block_shift_maps(source, target, count, strategy.block_width)
    elif isinstance(strategy, QuadratureL2toL1):
        maps = _quadrature_maps(source, target, count, strategy)
    else:
        if len(strategy.matrices) < count:
            raise ValueError(f"strategy provides {len(strategy.matrices)} < count {count} maps")
        maps = [LinearMap(m, source, target) for m in strategy.matrices[:count]]

    eps_n = (1.0 + gamma) ** (1.0 / count) - 1.0
    lo_margins = []
    hi_margins = []
    for n, lin in enumerate(maps):
        image = image_norms(lin, rows)
        # norm(target, lin v) / norm(source, v) over the distinct nonzero rows
        # v; groups are in order of their first rows, so the first extreme
        # group holds the first extreme nonzero row
        ratios = image / source_norms
        k_lo = int(np.argmin(ratios))
        k_hi = int(np.argmax(ratios))
        if ratios[k_lo] < 1.0 - _TOL:
            raise CertificationFailed(n, int(first[k_lo]), float(ratios[k_lo]))
        if ratios[k_hi] > (1.0 + eps_n) * (1.0 + _TOL):
            raise CertificationFailed(n, int(first[k_hi]), float(ratios[k_hi]))
        lo_margins.append(float(ratios[k_lo]) - 1.0)
        hi_margins.append((1.0 + eps_n) - float(ratios[k_hi]))
        del image, ratios  # not alive while the next map images
    slots = (eps_n,) * count
    assert np.prod(1.0 + np.array(slots)) <= (1.0 + gamma) * (1.0 + _TOL)
    return EmbeddingBank(tuple(maps), slots, gamma, strategy, tuple(lo_margins), tuple(hi_margins))


def _certify_rows(source: Space, certify_set):
    """The distinct nonzero rows of a certify set, in order of their first
    rows: (rows, first, source_norms), with the index of each one's first
    row among the nonzero rows, and its source norm. They are the groups of
    distinct_rows whose kept row has a positive norm.

    An array or a sequence of vectors is one block; a RowBlocks stream is
    read twice by distinct_rows, a block at a time (once, if its rows fit in
    one block). The kept rows are normed in one call; a first row's index
    among the nonzero rows is its index less the zero rows before it, which
    group tells, a row block at a time."""
    dim = source.dim
    if isinstance(certify_set, RowBlocks):
        total = len(certify_set)
        # a stream whose rows fit in one block is formed once, for both passes
        stream = certify_set if len(list(row_blocks(total, dim))) > 1 else list(certify_set)
    else:
        stream = [as_rows(certify_set, dim)]
        total = len(stream[0])
    kept, first, group = distinct_rows(stream, total, dim)
    kept_norms = norms(source, kept)
    zero = ~(kept_norms > 0.0)
    # first rows, in place: each one's index less the zero rows before it.
    # Groups are numbered in order of their first rows, so a row block's
    # first rows are those of the groups after the last block's, up to its
    # largest group
    zeros = lo = 0
    for block in row_blocks(total, 1):
        hi = max(lo, int(group[block].max()) + 1)
        counts = np.cumsum(zero[group[block]])
        first[lo:hi] -= counts[first[lo:hi] - block.start] + zeros
        zeros, lo = zeros + int(counts[-1]), hi
    del group, zero
    take = np.flatnonzero(kept_norms > 0.0)
    if not len(take):
        raise ValueError("certify_set must contain at least one nonzero vector")
    # gather the nonzero groups to the front in place: take ascends, so
    # take[i] >= i, and no block reads a row that an earlier block wrote
    for block in row_blocks(len(take), dim):
        kept[block] = kept[take[block]]
        first[block] = first[take[block]]
        kept_norms[block] = kept_norms[take[block]]
    n = len(take)
    return kept[:n], first[:n], kept_norms[:n]


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
