"""Correctness checks on the output of one `spiralglue run` op.

An op passes only when every check holds; each failed check yields one
message, so an empty list means the op is correct.
"""

from __future__ import annotations

import csv
import json
import re

_PAIRS = re.compile(r"over (\d+) pairs")
DISTORTION_RTOL = 1e-12


def masked(report: dict) -> str:
    """The report as canonical JSON with the `timings` key removed."""
    return json.dumps({k: v for k, v in report.items() if k != "timings"}, indent=2, sort_keys=True)


def check_report(
    code: int,
    stdout: str,
    report: dict | None,
    n_points: int,
    first_masked: str | None = None,
    reference: dict | None = None,
) -> list[str]:
    """Problems with one op's exit code, printed summary and report.

    first_masked is the masked report of the run's first op on the same
    config (None for that op itself); reference holds the stored values of
    the config's seed, when there are any.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report is None:
        return problems + ["no report written"]
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}")
        return problems
    dist = report["distortion"]
    if not dist["distortion"] <= dist["bounds"]["ratio"]:
        problems.append(
            f"distortion {dist['distortion']!r} above bound {dist['bounds']['ratio']!r}"
        )
    expected = n_points * (n_points - 1) // 2
    by_class = sum(c["count"] for c in dist["by_class"].values())
    found = _PAIRS.search(stdout)
    printed = int(found.group(1)) if found else None
    if printed != expected or by_class != expected:
        problems.append(
            f"pair count: printed {printed}, by_class sum {by_class}, expected {expected}"
        )
    if first_masked is not None and masked(report) != first_masked:
        problems.append("masked report differs from the run's first op")
    if reference is not None:
        ref = reference["distortion"]
        if abs(dist["distortion"] - ref) > DISTORTION_RTOL * abs(ref):
            problems.append(f"distortion {dist['distortion']!r} != reference {ref!r}")
        chosen = report["selection"]["chosen_indices"]
        if chosen != reference["chosen_indices"]:
            problems.append(f"chosen_indices {chosen} != reference {reference['chosen_indices']}")
        counts = {k: v["count"] for k, v in dist["by_class"].items()}
        if counts != reference["class_counts"]:
            problems.append(f"class counts {counts} != reference {reference['class_counts']}")
    return problems


def check_artifacts(outputs: dict[str, str], n_points: int) -> list[str]:
    """Row and image counts of the pairs CSV and images file, when written."""
    problems = []
    if "pairs_csv" in outputs:
        with open(outputs["pairs_csv"], encoding="utf-8", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != n_points * (n_points - 1) // 2:
            problems.append(f"pairs CSV has {rows} rows for {n_points} points")
    if "images" in outputs:
        with open(outputs["images"], encoding="utf-8") as fh:
            images = len(json.load(fh))
        if images != n_points:
            problems.append(f"images file has {images} images for {n_points} points")
    return problems
