"""Fast tests of the benchmark itself, at 10 points per workload.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import run
from checks import check_report, masked
from workloads import WORKLOADS

TINY = 3  # points per level
CLI = run.load_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_METRIC = re.compile(r"^metric (\S+) (\S+) (\S+)", re.M)


def _printed(capsys) -> dict[str, str]:
    return {name: unit for name, _, unit in _METRIC.findall(capsys.readouterr().out)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_unit(name, capsys):
    w = WORKLOADS[name]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = run.run_workload(CLI, w, 7, 0.0, False, per_level=TINY, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    assert _printed(capsys) == {**end_to_end, **run.PRINTED_ONLY}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == end_to_end
    assert all(m["value"] > 0 for m in result["metrics"].values())

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    result = run.run_workload(CLI, w, 7, 0.0, True, per_level=TINY)
    assert result["correct"] and result["failed"] == 0
    assert _printed(capsys) == per_layer
    assert {n: m["unit"] for n, m in result["metrics"].items()} == per_layer


def test_tracer_restores_the_program():
    import spiralglue.cli as cli
    import spiralglue.spaces as spaces

    before = (cli.decompose, spaces.apply)
    tracer = run.Tracer()
    tracer.install()
    assert cli.decompose is not before[0]
    tracer.uninstall()
    assert (cli.decompose, spaces.apply) == before


@pytest.fixture(scope="module")
def good_op(tmp_path_factory):
    """(stdout, report) of one correct tiny op."""
    workdir = tmp_path_factory.mktemp("op")
    client = run.Client(CLI, WORKLOADS["dense-l1-121"], [7], workdir, per_level=TINY)
    client.op()
    assert client.failed == 0
    report = json.loads(Path(client.outputs["report"]).read_text(encoding="utf-8"))
    return "distortion 1.0 <= bound 3.0 over 45 pairs\n", report


def test_checker_accepts_a_correct_op(good_op):
    stdout, report = good_op
    other = copy.deepcopy(report)
    other["timings"] = {k: v + 1.0 for k, v in other["timings"].items()}
    assert check_report(0, stdout, other, 10, masked(report)) == []


def test_checker_flags_distortion_above_bound(good_op):
    stdout, report = good_op
    bad = copy.deepcopy(report)
    bad["distortion"]["distortion"] = bad["distortion"]["bounds"]["ratio"] * 1.001
    assert any("above bound" in p for p in check_report(0, stdout, bad, 10))


def test_checker_flags_a_changed_masked_report(good_op):
    stdout, report = good_op
    bad = copy.deepcopy(report)
    bad["selection"]["worst_margins"][0] += 1e-9
    problems = check_report(0, stdout, bad, 10, masked(report))
    assert problems == ["masked report differs from the run's first op"]


def test_checker_flags_a_wrong_pair_count(good_op):
    stdout, report = good_op
    assert any("pair count" in p for p in check_report(0, stdout, report, 11))
    short = stdout.replace("over 45 pairs", "over 44 pairs")
    assert any("pair count" in p for p in check_report(0, short, report, 10))
    bad = copy.deepcopy(report)
    next(iter(bad["distortion"]["by_class"].values()))["count"] += 1
    assert any("pair count" in p for p in check_report(0, stdout, bad, 10))


def test_checker_flags_reference_mismatch_and_failed_status(good_op):
    stdout, report = good_op
    d = report["distortion"]
    ref = {
        "distortion": d["distortion"],
        "chosen_indices": report["selection"]["chosen_indices"],
        "class_counts": {k: v["count"] for k, v in d["by_class"].items()},
    }
    assert check_report(0, stdout, report, 10, reference=ref) == []
    off = dict(ref, distortion=d["distortion"] * (1.0 + 1e-11))
    assert any("reference" in p for p in check_report(0, stdout, report, 10, reference=off))
    failed = {"status": "BankExhausted", "config": report["config"]}
    assert len(check_report(1, stdout, failed, 10)) == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(k) for k in range(20, 0, -1)]) == (10.0, 50.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
