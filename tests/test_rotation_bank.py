"""A bank of rotations, whose blend gains have a closed form.

The maps psi_n(x) = (cos(n phi) x, sin(n phi) x) take l2 dim 2 isometrically
into l2 dim 4. A blend cos(t) psi_i + sin(t) psi_j has the gain
sqrt(1 + sin(2 t) cos(delta)) on every unit row, where delta = (j - i) phi.
Selection must then pass to a subsequence against these gains, and the
sweep's sandwich gains must equal the closed form within a few ulps: no
other test checks a gain against anything but another numerical path.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.bank import blend_threshold
from spiralglue.cli import main, parse_config, run_pipeline

# the relative distance from the closed form that a gain may have
_GAIN_RTOL = 4 * 2.0**-52


def _rotation_config(tmp_path, cos_phi: float, count: int) -> dict:
    """A run of the rotation bank of count maps, on the points of per_level
    40, mixed placement and seed 7, with its report in tmp_path."""
    phi = math.acos(cos_phi)
    matrices = [
        np.kron([[math.cos(n * phi)], [math.sin(n * phi)]], np.eye(2)).tolist()
        for n in range(count)
    ]
    return {
        "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        "target": {"dim": 4, "norm": {"norm": "lp", "p": 2.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "points": {"generator": {"seed": 7, "per_level": 40, "placement": "mixed"}},
        "bank": {"strategy": "user_matrices", "count": count, "matrices": matrices},
        "output": {"report": str(tmp_path / "report.json")},
    }


def test_rotation_bank_gains_match_closed_form(tmp_path, monkeypatch):
    phi = math.acos(-0.77)
    _, dist, g, pts = run_pipeline(parse_config(_rotation_config(tmp_path, -0.77, 8)))
    assert g.selection.chosen_indices == (0, 1, 2, 3)
    assert round(dist.distortion, 3) == 2.085
    # the sweep's sandwich angles and gains, (sigma, theta, G_sigma,
    # G_theta), as the per-pair sandwich returns them
    sandwiches = []
    sandwich = sg.verify._sandwich

    def recorded(*args):
        result = sandwich(*args)
        sandwiches.append(result[:4])
        return result

    monkeypatch.setattr(sg.verify, "_sandwich", recorded)
    sg.distortion_report(g, pts)
    sigma, theta, g_sigma, g_theta = map(np.concatenate, zip(*sandwiches))
    assert len(sigma) > 1000
    # selection picks consecutive maps, so every blend has delta = phi; the
    # closed form is exact but for sin and its root, so that its own
    # rounding stays small where 1 + sin(2 t) cos(delta) cancels
    cos_delta = Fraction(math.cos(phi))
    for name, angles, gains in (("g_sigma_w", sigma, g_sigma), ("g_theta_v", theta, g_theta)):
        t = angles.tolist()
        want = np.array([math.sqrt(1 + Fraction(math.sin(2.0 * a)) * cos_delta) for a in t])
        error = np.abs(gains - want) / want
        assert error.max() <= _GAIN_RTOL, (name, error.max() / 2.0**-52)


def test_rotation_bank_exhausted_reports_level(tmp_path, capsys):
    # with cos phi = -0.8 five maps hold no subsequence: at level 2 every
    # candidate's best blend stays below the threshold sqrt(2)/(3(1 + zeta))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_rotation_config(tmp_path, -0.8, 5)))
    assert main(["run", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "BankExhausted"
    failure = report["failure"]
    assert failure["level"] == 2
    assert failure["achieved"] == pytest.approx(0.448572, abs=1e-6)
    assert failure["threshold"] == blend_threshold(0.01)
    assert failure["threshold"] == pytest.approx(0.466737, abs=1e-6)
    assert capsys.readouterr().err.startswith("run failed: no admissible pair at level 2: ")
