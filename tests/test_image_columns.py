"""Images on the image columns: the union of the selected maps' hulls.

`apply` zero-fills outside a map's hull, and the blend weights are >= +0,
so every image of the glued embedding is +0.0 outside the hulls of the
selected maps. The sweep therefore holds the images on those columns alone
(`embed_window`), `embed` pads them with +0.0, and the windowed difference
norms, formed on the window and normed on full rows, have the bits of the
norms of the full-width images' differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spiralglue as sg
from spiralglue.bank import blend_threshold
from spiralglue.pointset import PLACEMENTS, pairs_at
from spiralglue.schedule import active_weights_log, log_radius

from oracles import blend_apply_scalar, block_shift_matrices, quadrature_matrices

_PS = [1.0, 2.0, 3.0, math.inf]


@st.composite
def _norm_specs(draw, dim: int):
    """An lp norm (p = 1, 2, 3 or inf), a weighted lp norm, or a max-abs
    norm of the coordinate functionals and a few more, on dim columns."""
    kind = draw(st.sampled_from(["lp", "weighted_lp", "max_abs"]))
    p = draw(st.sampled_from(_PS))
    if kind == "lp":
        return sg.Lp(p)
    if kind == "weighted_lp":
        return sg.WeightedLp(p, draw(hnp.arrays(float, dim, elements=st.floats(1e-3, 1e3))))
    extra = draw(hnp.arrays(float, (draw(st.integers(0, 3)), dim), elements=st.floats(-2.0, 2.0)))
    return sg.MaxAbsFunctionals(np.vstack([np.eye(dim), extra]))


def _user_matrix(draw, target_dim: int, source_dim: int) -> np.ndarray:
    """A dense matrix whose nonzero rows lie in a drawn band: empty (the
    zero map), one row, or wider; the band holds zeros of either sign."""
    start = draw(st.integers(0, target_dim))
    rows = draw(st.sampled_from([0, 1, draw(st.integers(0, target_dim - start))]))
    rows = min(rows, target_dim - start)
    m = np.zeros((target_dim, source_dim))
    band = draw(
        hnp.arrays(
            float,
            (rows, source_dim),
            elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0)),
        )
    )
    m[start : start + rows] = band
    return m


@st.composite
def _glues(draw, sched):
    """A glued embedding of a drawn source space through a drawn bank
    (block shift, quadrature or user matrices) and a drawn increasing
    selection; the maps are not certified, as no bound is checked here."""
    dim = draw(st.integers(1, 4))
    source = sg.Space(dim, draw(_norm_specs(dim)))
    count = draw(st.integers(sched.levels + 1, sched.levels + 3))
    kind = draw(st.sampled_from(["block_shift", "quadrature", "user"]))
    if kind == "block_shift":
        width = draw(st.integers(source.dim, source.dim + 2))
        target_dim = count * width + draw(st.integers(0, 3))
    elif kind == "quadrature":
        directions = draw(st.integers(1, 6))
        target_dim = count * directions + draw(st.integers(0, 3))
    else:
        target_dim = draw(st.integers(1, 12))
    target = sg.Space(target_dim, draw(_norm_specs(target_dim)))
    if kind == "block_shift":
        matrices = block_shift_matrices(source, target, count, width)
    elif kind == "quadrature":
        spec = sg.QuadratureL2toL1(directions, draw(st.integers(0, 2**32 - 1)))
        matrices = quadrature_matrices(source, target, count, spec)
    else:
        matrices = [_user_matrix(draw, target_dim, source.dim) for _ in range(count)]
    maps = tuple(sg.LinearMap(m, source, target) for m in matrices)
    margins = (0.0,) * count
    bank = sg.EmbeddingBank(maps, (0.0,) * count, 0.0, sg.BlockShift(), margins, margins)
    chosen = sorted(
        draw(st.lists(st.integers(0, count - 1), min_size=count, max_size=count, unique=True))[
            : sched.levels + 1
        ]
    )
    selection = sg.SelectionResult(
        tuple(chosen), (math.inf,) * sched.levels, 0.0, blend_threshold(0.0)
    )
    return sg.GlueEmbedding(sched, bank, selection)


def _hull_union(g) -> slice:
    """The image columns found from the dense matrices of the selected maps:
    from the first to the last row that holds a nonzero bit pattern."""
    dense = [g.map_at(k).matrix for k in range(1, g.schedule.levels + 2)]
    rows = np.flatnonzero(np.any(np.hstack(dense).view(np.uint64) != 0, axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1) if rows.size else slice(0, 0)


def _full(g, window: np.ndarray) -> np.ndarray:
    full = np.zeros((len(window), g.target.dim))
    full[:, g.image_columns] = window
    return full


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_images_are_positive_zero_outside_the_image_columns(data, small_ws, wide_ws):
    # every embed row is +0.0 bits outside image_columns, and on them has
    # the bits of embed_window's row and of the blend over every column;
    # the windowed difference norms of the window have the bits of norms of
    # the full-width images' differences
    sched = data.draw(st.sampled_from([small_ws, wide_ws]))
    g = data.draw(_glues(sched))
    placement = data.draw(st.sampled_from(PLACEMENTS))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = sg.generate_annular(seed, sched, 3, g.source.dim, placement, g.source.norm)
    cols = g.image_columns
    assert cols == _hull_union(g)
    images = sg.embed(g, pts.coords)
    window = sg.embed_window(g, pts.coords)
    assert images.shape == (len(pts), g.target.dim)
    assert window.shape == (len(pts), cols.stop - cols.start)
    outside = np.ones(g.target.dim, dtype=bool)
    outside[cols] = False
    assert not images.view(np.uint64)[:, outside].any()
    assert images[:, cols].tobytes() == window.tobytes()
    assert images.tobytes() == _full(g, window).tobytes()
    level, c, s = active_weights_log(sched, log_radius(sg.norms(g.source, pts.coords)))
    want = [
        blend_apply_scalar(c[i], s[i], g.map_at(level[i]), g.map_at(level[i] + 1), x)
        for i, x in enumerate(pts.coords)
    ]
    assert images.tobytes() == np.array(want).tobytes()
    assert [sg.embed(g, x).tobytes() for x in pts.coords] == [row.tobytes() for row in want]
    window.flags.writeable = False
    a, b = pairs_at(len(pts), 0, len(pts) * (len(pts) - 1) // 2)
    got = np.empty(len(a))
    sg.spaces.pair_difference_norms(g.target, window, a, b, got, cols)
    assert got.tobytes() == sg.norms(g.target, images[a] - images[b]).tobytes()


_ENTRIES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.floats(1e299, 1e300),
    st.floats(-1e300, -1e299),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_windowed_difference_norms_bit_equal_to_full_width(data):
    # rows that hold a window of full-width rows, +0.0 elsewhere: the norm
    # of each pair's difference has the bits of norms of the full rows'
    # difference, for every norm kind, in parts of a few rows (a small
    # BATCH_ELEMENTS cuts the runs of equal a), with the rows of every
    # scale sharing the reused block
    dim = data.draw(st.integers(1, 8))
    space = sg.Space(dim, data.draw(_norm_specs(dim)))
    start = data.draw(st.integers(0, dim))
    cols = slice(start, data.draw(st.integers(start, dim)))
    n = data.draw(st.integers(2, 12))
    window = data.draw(hnp.arrays(float, (n, cols.stop - cols.start), elements=_ENTRIES))
    full = np.zeros((n, dim))
    full[:, cols] = window
    window.flags.writeable = False
    a, b = pairs_at(n, 0, n * (n - 1) // 2)
    want = sg.norms(space, full[a] - full[b])
    batch = data.draw(st.sampled_from([1, 7, 16, 40, 1 << 14]))
    got = np.empty(len(a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
        sg.spaces.pair_difference_norms(space, window, a, b, got, cols)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [16, 100])
@pytest.mark.parametrize("p", _PS, ids=repr)
def test_windowed_parts_cut_runs_of_equal_a(p, batch, monkeypatch):
    # 23 rows whose 4 window columns sit in 10: each part holds at most
    # batch // (10 + 4) rows, fewer than a run of equal a
    rng = np.random.default_rng(5)
    space = sg.Space(10, sg.Lp(p))
    cols = slice(3, 7)
    full = np.zeros((23, 10))
    full[:, cols] = rng.standard_normal((23, 4)) * 10.0 ** rng.integers(-5, 5, (23, 4))
    full[1::4, 3], full[2::4, 5] = 0.0, -0.0
    window = np.ascontiguousarray(full[:, cols])
    a, b = pairs_at(23, 0, 23 * 22 // 2)
    want = sg.norms(space, full[a] - full[b])
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
    parts = list(sg.spaces.row_blocks(len(a), 10 + 4))
    assert max(part.stop - part.start for part in parts) < 22
    got = np.empty(len(a))
    sg.spaces.pair_difference_norms(space, window, a, b, got, cols)
    assert got.tobytes() == want.tobytes()


def test_report_keeps_the_images_on_the_image_columns(l1_pipeline):
    # l1_pipeline's maps [0, 1, 2, 3] of 6 block shifts of l1 dim 3 span
    # the columns [0, 12) of the 18-wide target
    g, pts, _ = l1_pipeline
    report = sg.distortion_report(g, pts)
    assert report.image_columns == g.image_columns == slice(0, 12)
    assert not report.images.flags.writeable
    assert report.images.tobytes() == sg.embed(g, pts.coords)[:, :12].tobytes()
