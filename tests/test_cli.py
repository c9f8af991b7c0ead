import csv
import json
import math

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.cli import main, parse_config


def _base_config(tmp_path, **overrides):
    cfg = {
        "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
        "points": {"generator": {"seed": 7, "per_level": 8, "placement": "mixed"}},
        "bank": {"strategy": "block_shift", "count": 6, "certify_random": 16, "certify_seed": 1},
        "output": {
            "report": str(tmp_path / "report.json"),
            "pairs_csv": str(tmp_path / "pairs.csv"),
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_bounds_exit_codes(capsys):
    assert main(["bounds", "--eps", "0.01", "--delta", "0.01", "--gamma", "0.01", "--zeta", "0.01"]) == 0
    out = capsys.readouterr().out
    ratio = float(next(l for l in out.splitlines() if l.startswith("ratio=")).split("=")[1])
    assert ratio == pytest.approx(3.252893793614469, rel=1e-12)
    assert main(["bounds", "--eps", "0.9"]) == 2


def test_bounds_solves_target(capsys):
    assert main(["bounds", "--target", "0.5"]) == 0
    out = capsys.readouterr().out
    ratio = float(next(l for l in out.splitlines() if l.startswith("ratio=")).split("=")[1])
    assert ratio <= 3.5


def test_run_writes_report_and_csv(tmp_path, capsys):
    path, cfg = _base_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["distortion"]["distortion"] <= report["distortion"]["bounds"]["ratio"] + 1e-9
    assert report["selection"]["chosen_indices"] == [0, 1, 2, 3]
    with open(tmp_path / "pairs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_id", "y_id", "class", "ratio", "lower_slack", "upper_slack"]
    n_points = 3 * 8 + 1
    assert len(rows) - 1 == n_points * (n_points - 1) // 2
    assert all(float(r[4]) >= -1e-9 and float(r[5]) >= -1e-9 for r in rows[1:])


def test_run_determinism_excluding_timings(tmp_path):
    path, _ = _base_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    assert main(["run", "--config", str(path)]) == 0
    second = json.loads((tmp_path / "report.json").read_text())
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_seed_override_changes_points(tmp_path):
    path, _ = _base_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "8"]) == 0
    shifted = json.loads((tmp_path / "report.json").read_text())
    assert main(["run", "--config", str(path)]) == 0
    base = json.loads((tmp_path / "report.json").read_text())
    assert shifted["distortion"]["distortion"] != base["distortion"]["distortion"]


def test_run_plateau_only_stays_near_isometric(tmp_path):
    path, cfg = _base_config(
        tmp_path, points={"generator": {"seed": 3, "per_level": 6, "placement": "plateau"}}
    )
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    gamma = report["config"]["params"]["gamma"]
    plateau = report["distortion"]["by_class"]["plateau"]
    assert plateau["min_ratio"] >= 1.0 - 1e-9
    assert plateau["max_ratio"] <= 1.0 + gamma + 1e-9


def test_run_adversarial_bank_exits_nonzero(tmp_path, capsys):
    eye = np.eye(2)
    path, _ = _base_config(
        tmp_path,
        source={"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        params={"eps": 0.5, "delta": 0.1, "gamma": 0.01, "zeta": 0.01},
        schedule={"r1": 1.0, "levels": 1, "margin": 0.01},
        points={"inline": [[math.exp(0.5 * math.pi), 0.0], [0.0, 0.0]]},
        bank={
            "strategy": "user_matrices",
            "count": 2,
            "matrices": [eye.tolist(), (-eye).tolist()],
            "certify_random": 4,
        },
    )
    assert main(["run", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "BankExhausted"


def test_run_certification_failure_exits_nonzero(tmp_path):
    half = (0.5 * np.eye(2)).tolist()
    path, _ = _base_config(
        tmp_path,
        source={"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        params={"eps": 0.5, "delta": 0.1, "gamma": 0.01, "zeta": 0.01},
        schedule={"r1": 1.0, "levels": 1, "margin": 0.01},
        points={"inline": [[2.0, 0.0], [0.0, 0.0]]},
        bank={"strategy": "user_matrices", "count": 2, "matrices": [half, half]},
    )
    assert main(["run", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "CertificationFailed"


def test_run_rejects_bad_config(tmp_path, capsys):
    path, cfg = _base_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["eps_target"] = 0.5  # both params and eps_target present
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    raw.pop("params")
    raw.pop("eps_target")
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2


def test_parse_config_eps_target(tmp_path):
    _, cfg = _base_config(tmp_path)
    raw = dict(cfg)
    raw.pop("params")
    raw["eps_target"] = 0.5
    parsed = parse_config(raw)
    assert sg.theoretical_bounds(parsed.params).ratio <= 3.5


def test_run_inline_points_and_images(tmp_path):
    pts = [[0.0, 0.0, 0.0], [0.4, 0.1, 0.0], [0.0, 0.3, 0.2]]
    path, cfg = _base_config(tmp_path, points={"inline": pts})
    raw = json.loads(path.read_text())
    raw["output"]["images"] = str(tmp_path / "images.json")
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 0
    images = json.loads((tmp_path / "images.json").read_text())
    assert set(images) == {"0", "1", "2"}
    assert images["0"] == [0.0] * 18


def test_run_quadrature_strategy(tmp_path):
    path, _ = _base_config(
        tmp_path,
        source={"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        target={"norm": {"norm": "lp", "p": 1.0}},
        points={"generator": {"seed": 11, "per_level": 6, "placement": "mixed"}},
        bank={
            "strategy": "quadrature_l2_to_l1",
            "count": 5,
            "directions": 64,
            "seed": 3,
            "certify_random": 16,
            "certify_seed": 2,
        },
    )
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["bank"]["cert_lower_margin"][0] >= -1e-12
    # an l1 source cannot feed the quadrature strategy
    raw = json.loads(path.read_text())
    raw["source"] = {"dim": 2, "norm": {"norm": "lp", "p": 1.0}}
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2


def test_theory_command(capsys):
    assert main(["theory", "--grid", "2001", "--pairs", "200", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_weights_csv(tmp_path):
    out = tmp_path / "weights.csv"
    assert (
        main(
            [
                "weights",
                "--eps", "0.5", "--delta", "0.1",
                "--levels", "3", "--grid", "200",
                "--out", str(out),
            ]
        )
        == 0
    )
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mu_1", "mu_2", "mu_3", "mu_4"]
    assert len(rows) - 1 == 200
    for row in rows[1:]:
        vals = [float(v) for v in row[1:]]
        assert sum(v * v for v in vals) == pytest.approx(1.0, abs=1e-12)
        assert sum(1 for v in vals if v != 0.0) <= 2


def test_gen_points_round_trip(tmp_path):
    out = tmp_path / "pts.json"
    assert (
        main(
            [
                "gen-points",
                "--eps", "0.5", "--delta", "0.1",
                "--seed", "6", "--per-level", "4", "--dim", "3",
                "--placement", "mixed", "--out", str(out),
            ]
        )
        == 0
    )
    pts = sg.load_points(str(out))
    assert len(pts) == 3 * 4 + 1
    assert pts.includes_origin


def _run_with(tmp_path, dotted, value):
    """Exit code of `run` on the base config with the value at a dotted key set."""
    path, cfg = _base_config(tmp_path)
    *parents, key = dotted.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    path.write_text(json.dumps(cfg))
    return main(["run", "--config", str(path)])


@pytest.mark.parametrize("dotted, value", [("schedule.levels", None), ("schedule.margin", [1])])
def test_run_config_type_error_names_key(tmp_path, capsys, dotted, value):
    assert _run_with(tmp_path, dotted, value) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}: ")


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("bank.count", 6.7),
        ("schedule.levels", 3.9),
        ("bank.certify_random", 2.5),
        ("bank.certify_random", True),
        ("bank.certify_random", -1),
        ("bank.certify_seed", -3),
        ("bank.block_width", -2),
        ("bank.count", "6"),
    ],
)
def test_run_rejects_bad_integer(tmp_path, capsys, dotted, value):
    # each of these ran as its truncation (a string as the integer it
    # spells) or failed naming no key
    assert _run_with(tmp_path, dotted, value) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}: expected an integer")
    assert not (tmp_path / "report.json").exists()


def test_run_accepts_integral_float(tmp_path):
    assert _run_with(tmp_path, "bank.count", 6.0) == 0


@pytest.mark.parametrize(
    "dotted",
    ["bank.cuont", "points.generator.per_levle", "shedule", "source.dimm", "source.norm.wieghts"],
)
def test_run_rejects_unknown_config_key(tmp_path, capsys, dotted):
    assert _run_with(tmp_path, dotted, 6) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}: unknown key")
    assert not (tmp_path / "report.json").exists()


_EYE3 = np.eye(3).tolist()
# the l1 norm of each 3-wide block of the 18-wide target, as a max of functionals
_L1_BLOCKS = np.kron(np.eye(6), [[a, b, 1.0] for a in (1.0, -1.0) for b in (1.0, -1.0)])


@pytest.mark.parametrize(
    "norm, stray",
    [
        ({"norm": "lp", "p": 1.0, "q": 2.0}, "q"),
        ({"norm": "weighted_lp", "p": 1.0, "weights": [1.0] * 18, "wieghts": [1.0]}, "wieghts"),
        ({"norm": "max_abs", "functionals": _L1_BLOCKS.tolist(), "p": 1.0}, "p"),
    ],
    ids=["lp", "weighted_lp", "max_abs"],
)
def test_run_rejects_unknown_norm_key(tmp_path, capsys, norm, stray):
    # each norm kind has its own keys: those of another kind are typos too,
    # and without the stray key the same config runs
    path, _ = _base_config(tmp_path, target={"norm": norm})
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: target.norm.{stray}: unknown key")
    del norm[stray]
    path, _ = _base_config(tmp_path, target={"norm": norm})
    assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "matrices", [[], [1], [[1.0, 0.0, 0.0]], [_EYE3, np.eye(2).tolist()]], ids=repr
)
def test_run_rejects_bad_user_matrices(tmp_path, capsys, matrices):
    bank = {"strategy": "user_matrices", "count": 2, "matrices": matrices}
    path, _ = _base_config(tmp_path, bank=bank)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: bank.matrices: ")


@pytest.mark.parametrize(
    "dotted, norm",
    [
        ("source", {"norm": "weighted_lp", "p": 2.0, "weights": [1.0, 2.0]}),
        ("source", {"norm": "max_abs", "functionals": [[1.0, 0.0], [0.0, 1.0]]}),
        ("source.norm", 5),
    ],
)
def test_run_rejects_norm_not_fitting_space(tmp_path, capsys, dotted, norm):
    assert _run_with(tmp_path, "source.norm", norm) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}: ")


def test_run_nonpositive_lower_bound_exits_nonzero(tmp_path):
    path, _ = _base_config(
        tmp_path, params={"eps": 0.9, "delta": 0.01, "gamma": 0.01, "zeta": 0.01}
    )
    assert main(["run", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "NonPositiveLowerBound"


def _user_bank(count=6):
    """Block-shift matrices of the 3-dim source into an 18-wide target."""
    return [np.kron(np.eye(6)[:, [k]], np.eye(3)).tolist() for k in range(count)]


@pytest.mark.parametrize("dim, code", [(18, 0), (99, 2), (17, 2)])
def test_run_user_matrices_target_dim_must_match(tmp_path, capsys, dim, code):
    bank = {"strategy": "user_matrices", "count": 6, "matrices": _user_bank()}
    path, _ = _base_config(tmp_path, bank=bank, target={"dim": dim})
    assert main(["run", "--config", str(path)]) == code
    if code:
        assert capsys.readouterr().err.startswith(f"config error: target.dim: {dim} != ")


@pytest.mark.parametrize("placement", ["bogus", 5, None])
def test_run_rejects_unknown_placement(tmp_path, capsys, placement):
    assert _run_with(tmp_path, "points.generator.placement", placement) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: points.generator.placement: unknown placement")
    assert not (tmp_path / "report.json").exists()


def test_placements_have_one_owner():
    from spiralglue.cli import build_parser
    from spiralglue.pointset import PLACEMENTS

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    option = next(a for a in sub.choices["gen-points"]._actions if a.dest == "placement")
    assert tuple(option.choices) == PLACEMENTS
    for name in PLACEMENTS:
        parse_config(
            {
                "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
                "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
                "bank": {"strategy": "block_shift"},
                "points": {"generator": {"placement": name}},
            }
        )


@pytest.mark.parametrize(
    "file_dim, source_p, code",
    [(3, 2.0, 0), (4, 2.0, 2), (3, 1.0, 2)],
    ids=["same-space", "wider-file", "other-norm"],
)
def test_run_points_file_must_lie_in_source(tmp_path, capsys, file_dim, source_p, code):
    # gen-points writes l2 points: a file of another width or norm than the
    # source is a config error naming the key, not a late exit 1 or a failed
    # unit-vector guard
    points = tmp_path / "points.json"
    gen = ["gen-points", "--seed", "6", "--per-level", "4", "--dim", str(file_dim)]
    assert main([*gen, "--out", str(points)]) == 0
    source = {"dim": 3, "norm": {"norm": "lp", "p": source_p}}
    path, _ = _base_config(tmp_path, source=source, points={"file": str(points)})
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: points.file: ")
        assert not (tmp_path / "report.json").exists()


def test_run_point_beyond_coverage_names_a_float(tmp_path, capsys):
    path, _ = _base_config(tmp_path, points={"inline": [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]]})
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: log norm {math.log(1e300)!r} exceeds schedule coverage ")
    assert "np.float64(" not in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["inline", "file"])
def test_run_rejects_non_finite_points(tmp_path, capsys, key, bad):
    # a NaN point used to fail late with a -inf norm, and an infinite one
    # beyond the schedule's coverage; json reads NaN, Infinity and -Infinity
    rows = [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]
    if key == "file":
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"dim": 3, "norm": {"norm": "lp", "p": 1.0}, "points": rows}))
        rows = str(points)
    path, _ = _base_config(tmp_path, points={key: rows})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: points.{key}: point 1 has a non-finite coordinate")
    assert not (tmp_path / "report.json").exists()


def test_run_orders_pairs_on_norms_with_tied_log_radii(tmp_path, capsys):
    # two norms one ulp apart share a math.log: the pair is still ordered
    # larger norm first
    above = math.nextafter(1e3, math.inf)
    assert math.log(above) == math.log(1e3)
    inline = [[0.0, 0.0, 0.0], [1e3, 0.0, 0.0], [0.0, above, 0.0]]
    path, _ = _base_config(tmp_path, points={"inline": inline})
    assert main(["run", "--config", str(path)]) == 0
    assert "over 3 pairs" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_run_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    path, _ = _base_config(tmp_path)
    assert main(["run", "--config", str(path), "--tolerance", tolerance]) == 2
    assert capsys.readouterr().err.startswith("config error: --tolerance must be finite and >= 0")
    assert not (tmp_path / "report.json").exists()
