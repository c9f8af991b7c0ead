"""The README's examples run as written: the "Library use" Python block,
and the "Config format" JSON block through `cli.parse_config`."""

import json
import re
from pathlib import Path

from spiralglue import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language after the heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_block("## Library use", "python"), str(README), "exec"), {})
    distortion, bound = capsys.readouterr().out.split(" <= ")
    assert 1.0 <= float(distortion) <= float(bound)


def test_config_format_example_parses(tmp_path, monkeypatch):
    # its outputs are paths relative to the working directory
    monkeypatch.chdir(tmp_path)
    raw = json.loads(_block("### Config format", "json"))
    cfg = cli.parse_config(raw)
    assert cfg.source.dim == 3 and cfg.levels == 3 and cfg.certify_random == 32
