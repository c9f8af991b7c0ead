"""Memory of certification and of the maps, measured with tracemalloc.

A generated map keeps only its hull, and the certification vectors (every
pair difference among them) live only while build_bank certifies. The
bounds here are fixed numbers of bytes for fixed small inputs: a dense map
or a certification array held past its stage exceeds them several times.
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


def _plateau_config() -> cli.RunConfig:
    raw = {
        "source": {"dim": 16, "norm": {"norm": "lp", "p": 2.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 50, "placement": "plateau"}},
    }
    return cli.parse_config(json.loads(json.dumps(raw)))


def test_sweep_starts_without_certification_arrays(monkeypatch):
    # the certify array of 151 points (11 608 rows of 16 floats, 1.49 MB)
    # used to stay alive through selection and the sweep
    seen = {}
    certify_vectors, distortion_report = cli._certify_vectors, cli.distortion_report

    def sized(*args):
        out = certify_vectors(*args)
        seen["certify_bytes"] = out.nbytes
        return out

    def entered(*args, **kwargs):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        return distortion_report(*args, **kwargs)

    monkeypatch.setattr(cli, "_certify_vectors", sized)
    monkeypatch.setattr(cli, "distortion_report", entered)
    cfg = _plateau_config()
    cli.run_pipeline(cfg)  # imports and caches of a first run are not counted
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli.run_pipeline(cfg)
    finally:
        tracemalloc.stop()
    assert seen["certify_bytes"] == 11_608 * 16 * 8
    assert seen["held"] - start < seen["certify_bytes"]


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
    if dim == 1 and extra == 0 and target.dim % 16 == 1:
        assert maps[-1].rows == slice(target.dim - 17, target.dim)


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
    assert sg.LinearMap.from_band(band, 7, source, target).rows == slice(0, 10)
    for start in (-1, 8):
        with pytest.raises(sg.DimensionMismatch):
            sg.LinearMap.from_band(band, start, source, target)
    with pytest.raises(sg.DimensionMismatch):
        sg.LinearMap.from_band(np.ones((3, 3)), 0, source, target)
    with pytest.raises(ValueError, match="non-finite"):
        sg.LinearMap.from_band(np.full((3, 2), np.nan), 0, source, target)
    zero = sg.LinearMap.from_band(np.zeros((3, 2)), 4, source, target)
    assert zero.hull.shape == (0, 2) and not zero.matrix.any()
