import numpy as np
import pytest

import spiralglue as sg


@pytest.fixture(scope="session")
def small_ws():
    """Moderate 3-level schedule whose radii stay comfortably in linear range."""
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    return sg.build_schedule(params, 1.0, 3)


@pytest.fixture(scope="session")
def wide_ws():
    """Slow-spiral schedule with radii far beyond the float range in linear domain."""
    params = sg.Params(0.01, 0.01, 0.01, 0.01)
    return sg.build_schedule(params, 1.0, 3)


@pytest.fixture(scope="session")
def l1_pipeline(wide_ws):
    """Assembled block-shift pipeline on an l1 source: (glue, points, decomposition)."""
    sched = wide_ws
    source = sg.Space(3, sg.Lp(1.0))
    target = sg.Space(18, sg.Lp(1.0))
    pts = sg.generate_annular(7, sched, 13, 3, "mixed", sg.Lp(1.0))
    decomp = sg.decompose(pts, sched)
    certify = [row for row in pts.coords if np.any(row)]
    n = len(pts)
    for a in range(n):
        for b in range(a + 1, n):
            certify.append(pts.coords[a] - pts.coords[b])
    for dirs in decomp.directions:
        certify.extend(dirs)
    bank = sg.build_bank(sg.BlockShift(), source, target, sched.params.gamma, 6, certify)
    selection = sg.select_subsequence(bank, decomp, sched.params.zeta)
    return sg.GlueEmbedding(sched, bank, selection), pts, decomp
