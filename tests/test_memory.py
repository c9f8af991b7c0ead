"""Memory of decompose, certification, the maps, the sweep and the images
writer, measured with tracemalloc.

A generated map keeps only its hull, decompose holds no list of pairs of
close directions and forms its unit differences a block at a time,
certification forms its vectors (every pair difference among them) a block
at a time and keeps only each map's extreme ratios, a lone map's norms are taken on
apply's images of its hull columns alone and a blend's on a buffer as
wide as the union of its hulls, the sweep holds the images on the selected
maps' columns alone and no array of one entry per pair, also when `run`
spools the rows of a pairs CSV, norms each block of differences in place
and writes a block's CSV lines a piece at a time, and the images file is
formatted a few rows at a time. The bounds here are
fixed numbers of bytes for fixed small inputs: a dense map, an array of
every certification vector, a buffer or a copy beside a block, or a column
per pair exceeds them.
"""

import json
import tracemalloc

import numpy as np
import pytest

import spiralglue as sg
import spiralglue.bank as bank_module
import spiralglue.cli as cli
from spiralglue.spaces import _hull_rows

from oracles import block_shift_matrices, quadrature_matrices

MB = 1e6


def _traced(fn, *args):
    """fn(*args), with the bytes its result keeps and the peak during the
    call, both above the traced memory at the call. An untraced call comes
    first, so that what the first call imports or caches is not counted."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - start, peak - start


def test_block_shift_bank_keeps_only_hulls():
    # 64 dense 1024 x 16 maps are 8.4 MB, and the copy each one used to be
    # frozen from doubled the peak; the hulls are 64 blocks of 16 x 16
    source = sg.Space(16, sg.Lp(2.0))
    target = sg.Space(64 * 16, sg.Lp(2.0))
    certify = np.random.default_rng(0).standard_normal((256, 16))
    bank, kept, peak = _traced(sg.build_bank, sg.BlockShift(), source, target, 0.01, 64, certify)
    assert bank.size == 64
    assert kept <= 0.25 * MB
    assert peak <= 1.0 * MB


def _config(dim: int, p: float, per_level: int, placement: str) -> cli.RunConfig:
    raw = {
        "source": {"dim": dim, "norm": {"norm": "lp", "p": p}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": per_level, "placement": placement}},
    }
    return cli.parse_config(json.loads(json.dumps(raw)))


# the certify array of the 151-point plateau config (11 608 rows of 16
# floats), which certification used to form whole
CERTIFY_ARRAY_BYTES = 11_608 * 16 * 8


def test_sweep_starts_without_certification_arrays(monkeypatch):
    # the certify array used to stay alive through selection and the sweep;
    # now no array of every certify row is formed at all: the certify
    # stage's peak stays below what that array alone took
    seen = {}
    certify_vectors, build_bank = cli._certify_vectors, cli.build_bank
    distortion_report = cli.distortion_report

    def certify_started(*args):
        seen["certify_start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        certify = certify_vectors(*args)
        seen["rows"] = len(certify)
        return certify

    def certified(*args):
        bank = build_bank(*args)
        seen["certify_peak"] = tracemalloc.get_traced_memory()[1] - seen["certify_start"]
        return bank

    def entered(*args, **kwargs):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        return distortion_report(*args, **kwargs)

    monkeypatch.setattr(cli, "_certify_vectors", certify_started)
    monkeypatch.setattr(cli, "build_bank", certified)
    monkeypatch.setattr(cli, "distortion_report", entered)
    cfg = _config(16, 2.0, 50, "plateau")
    cli.run_pipeline(cfg)  # imports and caches of a first run are not counted
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli.run_pipeline(cfg)
    finally:
        tracemalloc.stop()
    assert seen["rows"] == 11_608
    assert seen["certify_peak"] < CERTIFY_ARRAY_BYTES
    assert seen["held"] - start < CERTIFY_ARRAY_BYTES


def test_certification_peaks_within_a_few_batch_budgets():
    # 961 points of the dense l1 config: 502 789 certify rows. Certification
    # folds each block of them into each map's extreme ratios and holds one
    # block with its norms, nonzero rows and ratios, some two batch
    # budgets; grouping the whole stream first (a key and a group per row,
    # and a copy of every distinct row) peaked at 8.4 MB
    cfg = _config(3, 1.0, 320, "mixed")
    sched = sg.build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    pts = sg.generate_annular(7, sched, 320, 3, "mixed", cfg.source.norm)
    certify = cli._certify_vectors(cfg, pts, sg.decompose(pts, sched))
    args = (cfg.strategy, cfg.source, cfg.target, cfg.params.gamma, cfg.bank_count, certify)
    _, _, peak = _traced(sg.build_bank, *args)
    assert len(certify) == 502_789
    assert peak <= 3 * 8 * sg.spaces.BATCH_ELEMENTS


def test_decompose_holds_no_list_of_close_directions():
    # 961 points of the dense l1 config: decompose peaked at 22.1 MB above
    # its start while it grouped directions within 1e-12 of each other, most
    # of it the list of close pairs; with the bit-distinct rows as the
    # directions it peaked at about 8.4 MB, in the per-pair index and key
    # columns and the unit differences, and at about 3.5 MB with those
    # formed a block at a time (the next test)
    cfg = _config(3, 1.0, 320, "mixed")
    sched = sg.build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    pts = sg.generate_annular(7, sched, 320, 3, "mixed", cfg.source.norm)
    _, _, peak = _traced(sg.decompose, pts, sched)
    assert len(pts) == 961
    assert peak <= 12 * MB


def test_decompose_forms_unit_differences_a_block_at_a_time():
    # the same 961 points: with a level's pair mask, index columns, unit
    # differences and key column formed whole, decompose peaked at 8.4 MB
    # above its start; with the mask built for a few x rows at a time and
    # each block of unit differences grouped alone, only the blocks'
    # distinct rows and distinct keys stay, and it peaks at about 3.5 MB
    cfg = _config(3, 1.0, 320, "mixed")
    sched = sg.build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    pts = sg.generate_annular(7, sched, 320, 3, "mixed", cfg.source.norm)
    _, _, peak = _traced(sg.decompose, pts, sched)
    assert peak <= 5 * MB


def test_images_file_is_formatted_in_small_blocks(tmp_path):
    # the 151 images of 96 floats of the plateau run, which the report keeps
    # on their 64 image columns: formatted all at once (one row block of
    # 96-float rows), their texts took the writer to 0.75 MB above its
    # start; zero-padded and formatted in blocks of at most 2048 floats it
    # peaks at about 0.17 MB
    _, dist, g, pts = cli.run_pipeline(_config(16, 2.0, 50, "plateau"))
    assert dist.images.shape == (151, 64)
    cols = dist.image_columns
    pad = (cols.start, g.target.dim - cols.stop)
    assert pad == (0, 32)
    path = str(tmp_path / "images.json")
    _, _, peak = _traced(cli._write_images, path, pts.ids, dist.images, pad)
    assert peak <= 0.4 * MB


def test_run_with_pairs_csv_keeps_no_pair_table(tmp_path):
    # with a pairs CSV the run used to hold the table of all 11 325 pairs
    # (0.92 MB) in the sweep and peak at 2.32 MB; the CSV's rows are now
    # formatted a judged block at a time and spooled to a file as text, and
    # the whole run, writes included, peaks at about 1.13 MB, in the sweep
    # (certification peaks at about 1.0 MB above its start)
    cfg = {
        "source": {"dim": 16, "norm": {"norm": "lp", "p": 2.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 50, "placement": "plateau"}},
        "output": {key: str(tmp_path / key) for key in ("report", "pairs_csv", "images")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _, peak = _traced(cli.main, ["run", "--config", str(path)])
    assert code == 0
    assert (tmp_path / "pairs_csv").read_bytes().count(b"\r\n") == 11_325 + 1
    assert peak <= 1.6 * MB


def test_sweep_without_pair_table_keeps_no_column_per_pair():
    # 121 points make 7260 pairs; a table of them (89 bytes a pair) and a
    # column of their image difference norms (8 bytes) took the sweep's peak
    # to 1.31 MB above its start. A library call with the defaults kept a
    # table of every pair (77 bytes a pair) as its report's pair_checks; it
    # now sweeps as `run` does
    _, _, g, pts = cli.run_pipeline(_config(3, 1.0, 40, "mixed"))
    assert len(pts) == 121
    report, kept, peak = _traced(sg.distortion_report, g, pts)
    assert sum(c.count for c in report.by_class.values()) == 7260
    assert kept <= 0.1 * MB
    assert peak <= 1.0 * MB


@pytest.mark.parametrize(
    "dim, p, per_level, placement, bound",
    [(3, 1.0, 40, "mixed", 0.534), (16, 2.0, 50, "plateau", 1.079)],
    ids=["dense-l1", "plateau-l2"],
)
def test_sweep_judges_2048_pairs_a_block_within_the_old_peak(
    monkeypatch, dim, p, per_level, placement, bound
):
    # the sweep peaked at 0.534 MB (dense) and 1.079 MB (plateau) above its
    # start with blocks of 1024 pairs: the block table held the sandwich
    # columns, the source differences were alive whole through the judge,
    # and every check formed full-block arrays. With 1-d columns only and
    # every row temporary in its own row blocks, blocks of 2048 pairs peak
    # at about 0.50 and 0.71 MB
    _, _, g, pts = cli.run_pipeline(_config(dim, p, per_level, placement))
    sizes = []
    judge = sg.verify._judge_pairs

    def counted(g, bounds, table, xs, *rest):
        sizes.append(len(xs))
        return judge(g, bounds, table, xs, *rest)

    monkeypatch.setattr(sg.verify, "_judge_pairs", counted)
    _, _, peak = _traced(sg.distortion_report, g, pts)
    # _traced sweeps twice: the second sweep's blocks
    blocks = sizes[len(sizes) // 2 :]
    assert sum(blocks) == len(pts) * (len(pts) - 1) // 2
    assert len(blocks) > 1 and min(blocks[:-1]) >= 2048
    assert peak <= bound * MB


def test_sweep_image_differences_take_one_block(monkeypatch):
    # a row block of the sweep's image differences is one array of at most
    # BATCH_ELEMENTS entries, the a rows gathered less a slice of the images
    # per run of equal a. With the norm replaced by a read of one column,
    # the peak is that array, 131 KB. A gather of the b rows beside it held
    # two such arrays at once (266 KB), and a run's a row broadcast over its
    # b rows took a numpy iterator buffer (199 KB), both above the bound
    target = sg.Space(512, sg.Lp(2.0))
    images = np.random.default_rng(1).standard_normal((64, 512))
    a, b = sg.pointset.pairs_at(len(images), 37, len(images) * (len(images) - 1) // 2)
    out = np.empty(len(a))
    sg.spaces.pair_difference_norms(target, images, a, b, out, slice(0, 512))
    assert out.tobytes() == sg.norms(target, images[a] - images[b]).tobytes()
    monkeypatch.setattr(sg.spaces, "_norms_in_place", lambda spec, X: X[:, 0])
    _, _, peak = _traced(sg.spaces.pair_difference_norms, target, images, a, b, out, slice(0, 512))
    assert peak <= 8 * sg.spaces.BATCH_ELEMENTS + 24_000


@pytest.mark.parametrize("p", [1.0, 2.0], ids=["l1", "l2"])
def test_difference_norms_take_no_copy_of_their_block(p):
    # each row block of differences is normed in place: the abs runs into
    # the block itself. With the real norms the peak is the block (131 KB),
    # the one numpy iterator buffer that the l2 norm's division by the row
    # maxima takes, and the result; the abs copy of the block beside it
    # took the peak to 262 KB (l1) and 279 KB (l2)
    target = sg.Space(512, sg.Lp(p))
    images = np.random.default_rng(1).standard_normal((64, 512))
    a, b = sg.pointset.pairs_at(len(images), 37, len(images) * (len(images) - 1) // 2)
    out = np.empty(len(a))
    sg.spaces.pair_difference_norms(target, images, a, b, out, slice(0, 512))
    assert out.tobytes() == sg.norms(target, images[a] - images[b]).tobytes()
    _, _, peak = _traced(sg.spaces.pair_difference_norms, target, images, a, b, out, slice(0, 512))
    assert peak <= 8 * (sg.spaces.BATCH_ELEMENTS + np.getbufsize()) + 24_000


def test_pairs_spool_writes_a_block_in_pieces():
    # a block of 2048 CSV lines with distinct floats: their texts (each
    # distinct float's once) stay alive through the block, but the lines
    # are joined, encoded and written 512 at a time, and the call peaks at
    # about 0.87 MB above its start. Joined whole, the block's lines, their
    # text and its bytes took the peak to 1.13 MB
    rng = np.random.default_rng(2)
    table = sg.verify.PairTable(2048, sandwich=False)
    table.x_id[:] = rng.integers(0, 10_000, 2048)
    table.y_id[:] = rng.integers(0, 10_000, 2048)
    table.code[:], table.level[:], table.x_level[:] = 1, 2, 0
    for column in (table.ratio, table.lower_slack, table.upper_slack):
        column[:] = rng.uniform(0.5, 1.5, 2048)
    spool = cli._PairsSpool()
    try:
        _, _, peak = _traced(spool, table, slice(0, 2048))
        spool.fh.seek(0)
        lines = spool.fh.read().split(b"\r\n")
    finally:
        spool.close()
    columns = (table.x_id, table.y_id, table.ratio, table.lower_slack, table.upper_slack)
    want = [
        f"{x},{y},same:2,{r!r},{lo!r},{hi!r}".encode()
        for x, y, r, lo, hi in zip(*(c.tolist() for c in columns))
    ]
    # _traced writes the block twice, each line ended by CRLF
    assert lines == want + want + [b""]
    assert peak <= 1.0 * MB


def _quadrature_raw(target_dim: int, count: int, per_level: int, certify_random: int) -> dict:
    """A run config of l2 dim 2 into l1 dim target_dim through a quadrature
    bank of count maps, each a band of target_dim / count rows."""
    return {
        "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        "target": {"dim": target_dim, "norm": {"norm": "lp", "p": 1.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "bank": {
            "strategy": "quadrature_l2_to_l1",
            "count": count,
            "directions": target_dim // count,
            "seed": 3,
            "certify_random": certify_random,
        },
        "points": {"generator": {"seed": 7, "per_level": per_level, "placement": "mixed"}},
    }


def test_wide_sweep_norms_its_image_differences_in_place():
    # l2-to-l1-wide's config: 31 points of l2 dim 2 imaged into l1 dim
    # 1536 by the maps [0, 1, 2, 3] of 6 quadrature maps, whose hulls span
    # the columns [0, 1024). The sweep holds the images on those columns
    # (254 KB; 381 KB when it held all 1536), and a part's window
    # differences beside the full-width block they are copied into, both
    # within BATCH_ELEMENTS. It peaks at about 0.46 MB above its start: 0.59
    # MB with the full-width images, and 0.67 MB when an abs copy of each
    # block of differences was taken as well
    _, _, g, pts = cli.run_pipeline(cli.parse_config(_quadrature_raw(1536, 6, 10, 4096)))
    assert len(pts) == 31
    report, _, peak = _traced(sg.distortion_report, g, pts)
    assert report.image_columns == slice(0, 1024)
    assert report.images.shape == (31, 1024)
    assert peak <= 0.52 * MB


def test_sweep_on_a_count_12_bank_holds_only_the_image_columns():
    # 301 points of l2 dim 2 imaged into l1 dim 3072 by the maps [0, 1, 2,
    # 3] of 12 quadrature maps of 256 rows each: the images on the 1024
    # image columns take 2.47 MB, and the sweep peaks at about 3.0 MB above
    # its start. Holding the full 3072-wide images (7.4 MB) it peaked at
    # 7.97 MB
    _, _, g, pts = cli.run_pipeline(cli.parse_config(_quadrature_raw(3072, 12, 100, 256)))
    assert len(pts) == 301
    report, _, peak = _traced(sg.distortion_report, g, pts)
    assert report.image_columns == slice(0, 1024)
    assert report.images.shape == (301, 1024)
    assert peak < 4 * MB


def test_weighted_image_norms_take_no_buffer_beside_the_product():
    # a lone map's norm is taken on apply's images of its hull columns
    # alone: no zero buffer of the node beside them, and no ufunc buffers
    # for passes on strided columns. What is left is a block of images and
    # its product (half the budget each), the one numpy iterator buffer
    # that a pass with a broadcast operand (the row maxima, the weights)
    # takes, and the result: about 142 KB with numpy 2.4.6 on every map.
    # The block of products alone, at twice the rows, took 211 KB. The
    # node buffer with its strided passes peaked at 246 KB on maps 0, 2, 3
    # and 5 (384-column nodes) and at 215 KB on maps 1 and 4 (768-column
    # nodes); the slack puts the bound at 229 KB, about halfway between 211
    # and 246 KB, so those four maps exceed it
    source = sg.Space(2, sg.Lp(2.0))
    target = sg.Space(1536, sg.WeightedLp(3.0, np.linspace(0.5, 2.0, 1536)))
    maps = bank_module._quadrature_maps(
        source, sg.Space(1536, sg.Lp(1.0)), 6, sg.QuadratureL2toL1(256, seed=3)
    )
    X = np.random.default_rng(4).standard_normal((1024, 2))
    bound = 8 * (sg.spaces.BATCH_ELEMENTS + np.getbufsize() + len(X)) + 24_000
    for m in maps:
        lin = sg.LinearMap.from_band(m.hull, m.rows.start, source, target)
        _, _, peak = _traced(sg.image_norms, lin, X)
        assert peak <= bound


def test_weighted_blend_norms_take_no_node_buffer():
    # a blend's buffer is as wide as the union of the two hulls, 512
    # columns for adjacent maps, and the norm's passes run on it whole. The
    # buffer on the node of the pairwise tree that holds the union (768 or
    # 1536 columns) with its strided passes peaked at 222 to 242 KB, above
    # the bound of the lone map's test above (229 KB) on four of the five
    # pairs; the union's buffer peaks at about 175 KB on all five
    source = sg.Space(2, sg.Lp(2.0))
    target = sg.Space(1536, sg.WeightedLp(3.0, np.linspace(0.5, 2.0, 1536)))
    maps = bank_module._quadrature_maps(
        source, sg.Space(1536, sg.Lp(1.0)), 6, sg.QuadratureL2toL1(256, seed=3)
    )
    maps = [sg.LinearMap.from_band(m.hull, m.rows.start, source, target) for m in maps]
    rng = np.random.default_rng(4)
    U = rng.standard_normal((1024, 2))
    U /= np.linalg.norm(U, axis=1)[:, None]
    angles = rng.uniform(0.0, 2.0 * np.pi, len(U))
    c, s = np.cos(angles), np.sin(angles)
    bound = 8 * (sg.spaces.BATCH_ELEMENTS + np.getbufsize() + len(U)) + 24_000
    for first, second in zip(maps, maps[1:]):
        _, _, peak = _traced(sg.blend_norms, c, s, first, second, U)
        assert peak <= bound


def _assert_maps_match_dense(maps, dense):
    assert len(maps) == len(dense)
    for m, want in zip(maps, dense):
        matrix = m.matrix
        assert matrix.tobytes() == want.tobytes()
        assert not matrix.flags.writeable and not m.hull.flags.writeable
        assert m.rows == _hull_rows(matrix)
        assert m.matrix[m.rows].tobytes() == m.hull.tobytes()
        assert m.hull.shape == (m.rows.stop - m.rows.start, m.source.dim)


@pytest.mark.parametrize(
    "dim, width, count, extra",
    [
        (16, None, 4, 0),  # blocks on multiples of 16
        (3, 5, 7, 0),  # blocks off them
        (3, None, 6, 11),  # a target wider than the blocks
        (1, None, 17, 0),  # the last map a one-row hull at the last row of 17
        (1, None, 33, 0),  # and at the last row of 33
        (1, 16, 2, 1),  # a one-row band at an aligned row short of the last
        (20, None, 3, 9),  # blocks wider than 16
    ],
)
def test_block_shift_maps_are_their_dense_matrices(dim, width, count, extra):
    source = sg.Space(dim, sg.Lp(1.0))
    target = sg.Space(count * (width or dim) + extra, sg.Lp(1.0))
    maps = bank_module._block_shift_maps(source, target, count, width)
    _assert_maps_match_dense(maps, block_shift_matrices(source, target, count, width))
    if dim == 1 and extra == 0:
        assert maps[-1].rows == slice(target.dim - 1, target.dim)


@pytest.mark.parametrize(
    "dim, directions, count, extra",
    [(1, 16, 3, 0), (2, 7, 4, 3), (2, 256, 6, 0), (3, 9, 3, 16)],
)
def test_quadrature_maps_are_their_dense_matrices(dim, directions, count, extra):
    source = sg.Space(dim, sg.Lp(2.0))
    target = sg.Space(count * directions + extra, sg.Lp(1.0))
    spec = sg.QuadratureL2toL1(directions, seed=5)
    maps = bank_module._quadrature_maps(source, target, count, spec)
    _assert_maps_match_dense(maps, quadrature_matrices(source, target, count, spec))


def test_from_band_checks_its_band():
    source, target = sg.Space(2), sg.Space(10)
    band = np.ones((3, 2))
    assert sg.LinearMap.from_band(band, 7, source, target).rows == slice(7, 10)
    for start in (-1, 8):
        with pytest.raises(sg.DimensionMismatch):
            sg.LinearMap.from_band(band, start, source, target)
    with pytest.raises(sg.DimensionMismatch):
        sg.LinearMap.from_band(np.ones((3, 3)), 0, source, target)
    with pytest.raises(ValueError, match="non-finite"):
        sg.LinearMap.from_band(np.full((3, 2), np.nan), 0, source, target)
    zero = sg.LinearMap.from_band(np.zeros((3, 2)), 4, source, target)
    assert zero.hull.shape == (0, 2) and not zero.matrix.any()
