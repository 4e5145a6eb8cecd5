"""The README's library quick start runs, and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

import gridcarbon

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first Python block after the "Quick start (library)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_prints_its_comments() -> None:
    code = _quick_start()
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in output.getvalue().splitlines()]
    commented = re.findall(r"^print\(.*#\s*(≈?)(\d+\.\d+)", code, re.MULTILINE)
    assert [(approx, float(value)) for approx, value in commented] == [
        ("", 480.0),
        ("≈", 489.8),
        ("", 0.0),
        ("≈", 489.8),
    ]
    assert len(printed) == len(commented)
    for value, (approx, expected) in zip(printed, commented):
        if approx:
            assert value == pytest.approx(float(expected), abs=0.05)
        else:
            assert value == float(expected)


def test_every_exported_name_resolves() -> None:
    missing = [name for name in gridcarbon.__all__ if not hasattr(gridcarbon, name)]
    assert missing == []
    assert len(set(gridcarbon.__all__)) == len(gridcarbon.__all__)
