import csv
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest

import spiralglue as sg
import spiralglue.cli
from spiralglue.cli import main, parse_config, run_pipeline


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


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_bounds_rejects_non_finite_target(target):
    # at NaN the target solve used to halve its scale forever, and at inf it
    # returned parameters; a child process with a timeout fails on a hang
    src = os.path.dirname(os.path.dirname(spiralglue.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "spiralglue.cli", "bounds", "--target", target],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: eps_target must be finite and positive, got {float(target)!r}\n"


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


@pytest.mark.parametrize("seed", [None, 11])
def test_report_config_reruns_the_run(tmp_path, seed):
    # the report's config is the one the run used: parsed and rerun (output
    # paths aside), it gives the same report, also under --seed
    path, cfg = _base_config(tmp_path)
    given = json.dumps(cfg, sort_keys=True)
    flags = [] if seed is None else ["--seed", str(seed)]
    assert main(["run", "--config", str(path), *flags]) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    assert json.dumps(cfg, sort_keys=True) == given
    recorded = first["config"]
    assert parse_config(recorded).generator["seed"] == (7 if seed is None else seed)
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    again = dict(recorded, output={"report": str(rerun / "report.json")})
    parse_config(again)
    (rerun / "config.json").write_text(json.dumps(again))
    assert main(["run", "--config", str(rerun / "config.json")]) == 0
    second = json.loads((rerun / "report.json").read_text())
    for report in (first, second):
        report.pop("timings")
        report["config"].pop("output")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


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
    # the report carries the exception's fields
    with pytest.raises(sg.BankExhausted) as exc:
        run_pipeline(parse_config(json.loads(path.read_text())))
    assert exc.value.level == 1
    assert report["failure"] == {
        "level": exc.value.level,
        "direction": exc.value.direction.tolist(),
        "angle": exc.value.angle,
        "achieved": exc.value.achieved,
        "threshold": exc.value.threshold,
    }


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
    # the report carries the exception's (map, index, ratio)
    with pytest.raises(sg.CertificationFailed) as exc:
        run_pipeline(parse_config(json.loads(path.read_text())))
    failed = (exc.value.map_index, exc.value.vector_index, exc.value.ratio)
    assert failed == (0, 0, 0.5)
    assert report["failure"] == dict(zip(["map_index", "vector_index", "ratio"], failed))
    assert report["error"] == str(exc.value)


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


@pytest.mark.parametrize("grid", [3, 4, 10, 10000, None])
def test_theory_spreading_bound_passes_on_every_grid(capsys, grid):
    # an even grid misses pi/4, where the bound has its kink and minimum;
    # the minimum is taken there in closed form, on any grid
    argv = ["theory", "--pairs", "20"] + ([] if grid is None else ["--grid", str(grid)])
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("[PASS] spreading bound minimum ")
    assert first.endswith(f"at {math.pi / 4!r}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", "2"], "error: grid_size must be >= 3"),
        (["--pairs", "-3"], "error: --pairs must be >= 1, got -3"),
        (["--pairs", "0"], "error: --pairs must be >= 1, got 0"),
        (["--seed", "-1"], "error: --seed: expected an integer >= 0, got -1"),
    ],
)
def test_theory_rejects_bad_arguments(capsys, argv, message):
    # exit 2 before any verdict is printed, not a traceback or a vacuous PASS
    assert main(["theory", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["weights", "gen-points"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.file"
    assert main([command, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: directory ")
    assert not out.parent.exists()
    # a directory is not a file that can be written
    assert main([command, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: [Errno ")


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


@pytest.mark.parametrize(
    "strategy",
    [{"strategy": "block_shift"}, {"strategy": "quadrature_l2_to_l1", "directions": 2}],
    ids=["block_shift", "quadrature"],
)
def test_run_rejects_oversized_generated_bank(tmp_path, capsys, strategy):
    # a generated bank holds count dense target.dim x source.dim matrices:
    # one element over the cap is a config error before any is built, and
    # the cap itself parses (running it would build 1 GiB of matrices)
    # (one level, so that two maps are enough for selection)
    cap = spiralglue.cli.MAX_BANK_ELEMENTS
    source = {"dim": 1, "norm": {"norm": "lp", "p": 2.0}}
    schedule = {"r1": 1.0, "levels": 1, "margin": 0.01}
    bank = {**strategy, "count": 2}
    _, cfg = _base_config(
        tmp_path, source=source, schedule=schedule, bank=bank, target={"dim": cap // 2}
    )
    assert parse_config(cfg).target.dim * 2 == cap
    path, _ = _base_config(
        tmp_path, source=source, schedule=schedule, bank=bank, target={"dim": cap // 2 + 1}
    )
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: bank.count: 2 maps of ")
    # the default target width, count * block width, is capped the same way
    bank = {"strategy": "block_shift", "count": 100000}
    path, _ = _base_config(tmp_path, source={**source, "dim": 2}, bank=bank)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: bank.count: 100000 maps of 200000 x 2")
    assert not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("rows", [[], [[1.0, 0.0, 0.0]]], ids=["none", "one"])
@pytest.mark.parametrize("key", ["inline", "file"])
def test_run_rejects_fewer_than_two_points_naming_key(tmp_path, capsys, monkeypatch, key, rows):
    # such a point set used to run every stage up to the sweep, whose error
    # named no key; an empty inline list failed on the shape of its array
    count = len(rows)
    if key == "file":
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"dim": 3, "norm": {"norm": "lp", "p": 1.0}, "points": rows}))
        rows = str(points)
    path, _ = _base_config(tmp_path, points={key: rows})
    _forbid_pipeline(monkeypatch)
    assert main(["run", "--config", str(path)]) == 2
    message = f"config error: points.{key}: needs at least two points, got {count}\n"
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key", ["inline", "file"])
def test_run_rejects_seed_with_given_points(tmp_path, capsys, monkeypatch, key):
    # --seed used to be ignored in silence when no generator makes the points
    rows = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
    if key == "file":
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"dim": 3, "norm": {"norm": "lp", "p": 1.0}, "points": rows}))
        rows = str(points)
    path, _ = _base_config(tmp_path, points={key: rows})
    _forbid_pipeline(monkeypatch)
    assert main(["run", "--config", str(path), "--seed", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: --seed: the points come from points.{key}")
    assert not (tmp_path / "report.json").exists()


def test_run_rejects_negative_seed_naming_flag(tmp_path, capsys, monkeypatch):
    # numpy's seed check used to word the error, once the pipeline had started
    path, _ = _base_config(tmp_path)
    _forbid_pipeline(monkeypatch)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "config error: --seed: expected an integer >= 0, got -1\n")
    assert not (tmp_path / "report.json").exists()


def test_gen_points_rejects_negative_seed_naming_flag(tmp_path, capsys):
    out = tmp_path / "points.json"
    assert main(["gen-points", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --seed: expected an integer >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "gen-points"])
@pytest.mark.parametrize("levels", ["1", "3"])
def test_non_finite_margin_exits_2_naming_margin(tmp_path, capsys, command, levels):
    # at one level a NaN margin used to write a file, since its coverage
    # passed every radius; at more, the error named log_r
    out = tmp_path / "out.file"
    assert main([command, "--levels", levels, "--margin", "nan", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: margin must be a finite real >= 0, got nan\n")
    assert main([command, "--levels", levels, "--margin", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: margin 1e+308 makes the level step")
    assert not out.exists()


def test_run_times_each_stage(tmp_path):
    path, _ = _base_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    timings = json.loads((tmp_path / "report.json").read_text())["timings"]
    stages = ["schedule", "generate", "decompose", "certify", "select", "sweep"]
    assert list(timings) == sorted(stages)
    assert all(v >= 0.0 for v in timings.values())


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


def test_run_names_the_pair_of_a_non_unit_sandwich_row(tmp_path, capsys):
    # the subnormal point's norm is its coordinate (sqrt(2) t rounds to t),
    # so its unit row has the norm sqrt(2): the sweep names its first pair
    inline = [[5e-324, 5e-324], [1.0, 0.0], [0.0, 2.0]]
    source = {"dim": 2, "norm": {"norm": "lp", "p": 2.0}}
    path, _ = _base_config(tmp_path, source=source, points={"inline": inline})
    assert main(["run", "--config", str(path)]) == 2
    text = f"u must be a unit vector, got norm {math.sqrt(2.0)!r}"
    assert capsys.readouterr().err == f"config error: pair (1, 0): {text}\n"


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


def _forbid_pipeline(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(spiralglue.cli, "run_pipeline", forbidden)


@pytest.mark.parametrize("key", ["output.report", "output.pairs_csv", "output.images", "--out"])
def test_run_rejects_missing_output_directory_before_running(tmp_path, capsys, monkeypatch, key):
    # each of these used to run the whole pipeline and then die with a
    # FileNotFoundError traceback at the write
    missing = str(tmp_path / "nonexistent" / "out")
    path, cfg = _base_config(tmp_path)
    argv = ["run", "--config", str(path)]
    if key == "--out":
        argv += ["--out", missing]
    else:
        cfg["output"][key.split(".")[1]] = missing
        path.write_text(json.dumps(cfg))
    _forbid_pipeline(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: directory ") and "does not exist" in err


@pytest.mark.parametrize("key", ["output.report", "output.pairs_csv", "output.images", "--out"])
def test_run_unwritable_output_exits_2_naming_key(tmp_path, capsys, key):
    # the directory exists, but the path is a directory itself: open fails
    # only at the write, after the run
    taken = tmp_path / "taken"
    taken.mkdir()
    path, cfg = _base_config(tmp_path)
    argv = ["run", "--config", str(path)]
    if key == "--out":
        argv += ["--out", str(taken)]
    else:
        cfg["output"][key.split(".")[1]] = str(taken)
        path.write_text(json.dumps(cfg))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key}: ")
    assert captured.out == ""


def _spool_in(tmp_path, monkeypatch):
    """A new directory that tempfile, and so the pairs spool, uses."""
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool))
    return spool


def test_failed_run_leaves_existing_pairs_csv_untouched(tmp_path, capsys, monkeypatch):
    # the pairs are spooled while the sweep runs, and the CSV is written
    # only at its turn among the outputs: a run that fails in the sweep,
    # many blocks in, leaves the file named by output.pairs_csv as it was,
    # and no spool behind
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    spool = _spool_in(tmp_path, monkeypatch)
    path, cfg = _base_config(
        tmp_path, points={"generator": {"seed": 7, "per_level": 13, "placement": "mixed"}}
    )
    old = b"x_id,y_id\r\nan earlier run's rows\r\n"
    (tmp_path / "pairs.csv").write_bytes(old)
    before = set(tmp_path.iterdir())
    assert main(["run", "--config", str(path), "--tolerance", "0"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "BoundViolated"
    assert report["failure"]["name"] == "plateau_bracket"
    assert f"slack {report['failure']['slack']!r}" in report["error"]
    assert capsys.readouterr().err.startswith("run failed: inequality 'plateau_bracket'")
    assert (tmp_path / "pairs.csv").read_bytes() == old
    # the failure report is the only new file
    assert set(tmp_path.iterdir()) == before | {tmp_path / "report.json"}
    assert list(spool.iterdir()) == []


def test_run_leaves_only_its_outputs(tmp_path, capsys, monkeypatch):
    spool = _spool_in(tmp_path, monkeypatch)
    path, cfg = _base_config(tmp_path)
    cfg["output"]["images"] = str(tmp_path / "images.json")
    path.write_text(json.dumps(cfg))
    (tmp_path / "pairs.csv").write_text("an earlier run's rows\n")
    assert main(["run", "--config", str(path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"config.json", "report.json", "pairs.csv", "images.json", "spool"}
    assert list(spool.iterdir()) == []
    rows = (tmp_path / "pairs.csv").read_text().splitlines()
    assert rows[0] == "x_id,y_id,class,ratio,lower_slack,upper_slack"
    assert len(rows) == 1 + 25 * 24 // 2


def test_pairs_csv_written_through_links(tmp_path, capsys):
    # the CSV is opened at its turn and written through its path, as every
    # output is: a symlink stays a link, and its target, hardlinked and of
    # mode 0o640, keeps both names and its mode
    path, cfg = _base_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    want = (tmp_path / "pairs.csv").read_bytes()
    real, twin, link = (tmp_path / name for name in ("real.csv", "twin.csv", "link.csv"))
    real.write_bytes(b"an earlier run's rows\r\n")
    real.chmod(0o640)
    os.link(real, twin)
    link.symlink_to(real)
    cfg["output"]["pairs_csv"] = str(link)
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert link.is_symlink() and real.read_bytes() == twin.read_bytes() == want
    assert stat.S_IMODE(real.stat().st_mode) == 0o640 and real.stat().st_nlink == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pairs_csv_written_into_a_fifo(tmp_path, capsys):
    # a FIFO at output.pairs_csv stays a FIFO, and its reader gets the CSV
    path, cfg = _base_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    want = (tmp_path / "pairs.csv").read_bytes()
    fifo = tmp_path / "pairs.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cfg["output"]["pairs_csv"] = str(fifo)
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    reader.join(timeout=30)
    assert got == [want]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_pairs_spool_error_exits_2_naming_key(tmp_path, capsys, monkeypatch):
    # no spool can be made: the run goes on, and at the CSV's turn, after
    # the report, exits 2 naming output.pairs_csv with the CSV untouched
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    path, cfg = _base_config(tmp_path)
    (tmp_path / "pairs.csv").write_bytes(b"an earlier run's rows\r\n")
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: output.pairs_csv: ")
    assert captured.out == ""
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "ok"
    assert (tmp_path / "pairs.csv").read_bytes() == b"an earlier run's rows\r\n"


def test_run_unwritable_failure_report_exits_2_naming_key(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    half = (0.5 * np.eye(2)).tolist()
    path, _ = _base_config(
        tmp_path,
        source={"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        params={"eps": 0.5, "delta": 0.1, "gamma": 0.01, "zeta": 0.01},
        schedule={"r1": 1.0, "levels": 1, "margin": 0.01},
        points={"inline": [[2.0, 0.0], [0.0, 0.0]]},
        bank={"strategy": "user_matrices", "count": 2, "matrices": [half, half]},
        output={"report": str(taken)},
    )
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: output.report: ")


@pytest.mark.parametrize(
    "dotted, value, message",
    [
        ("params.eps", 5.0, "expected a real number in (0, 1), got 5.0"),
        ("params.eps", "0.01", "expected a finite real number, got '0.01'"),
        ("params.zeta", True, "expected a finite real number, got True"),
        ("schedule.r1", -1, "expected a real number > 0, got -1"),
        ("schedule.r1", math.inf, "expected a finite real number, got inf"),
        ("schedule.margin", math.nan, "expected a finite real number, got nan"),
        ("schedule.margin", math.inf, "expected a finite real number, got inf"),
        ("schedule.margin", True, "expected a finite real number, got True"),
        ("schedule.margin", -0.5, "expected a real number >= 0, got -0.5"),
        ("schedule.margin", 10**400, "expected a finite real number, got 1000"),
        ("bank.count", 3, "3 < schedule.levels + 1 = 4"),
        ("bank.block_width", 2, "expected an integer >= 3, got 2"),
    ],
)
def test_run_rejects_bad_real_or_count_naming_key(
    tmp_path, capsys, monkeypatch, dotted, value, message
):
    # each of these was accepted (a string or a bool read by float), failed
    # naming no key, or failed only after points, decomposition or
    # certification had run
    _forbid_pipeline(monkeypatch)
    assert _run_with(tmp_path, dotted, value) == 2
    assert capsys.readouterr().err.startswith(f"config error: {dotted}: {message}")


@pytest.mark.parametrize("value", [-0.5, "0.5", False, math.nan])
def test_run_rejects_bad_eps_target(tmp_path, capsys, value):
    path, cfg = _base_config(tmp_path)
    del cfg["params"]
    cfg["eps_target"] = value
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: eps_target: expected a ")


@pytest.mark.parametrize(
    "source, target, bank, message",
    [
        (
            {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
            {"dim": 17},
            {"strategy": "block_shift", "count": 6},
            "17 cannot hold 6 blocks of 3 columns",
        ),
        # the shape of the l2-to-l1-wide benchmark workload with a narrow target
        (
            {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
            {"dim": 100, "norm": {"norm": "lp", "p": 1.0}},
            {"strategy": "quadrature_l2_to_l1", "count": 6, "directions": 256, "seed": 3},
            "100 cannot hold 6 blocks of 256 directions",
        ),
    ],
    ids=["block_shift", "quadrature"],
)
def test_run_rejects_target_too_narrow_for_blocks(
    tmp_path, capsys, monkeypatch, source, target, bank, message
):
    # this exited 1 once points were generated and decomposed
    path, _ = _base_config(tmp_path, source=source, target=target, bank=bank)
    _forbid_pipeline(monkeypatch)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: target.dim: {message}\n"


def test_run_rejects_fewer_user_matrices_than_count(tmp_path, capsys, monkeypatch):
    bank = {"strategy": "user_matrices", "count": 6, "matrices": _user_bank(5)}
    path, _ = _base_config(tmp_path, bank=bank)
    _forbid_pipeline(monkeypatch)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: bank.count: 6 > 5 matrices given\n"
