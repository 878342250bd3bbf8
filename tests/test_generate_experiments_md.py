"""Tests for the EXPERIMENTS.md drift check (``generate_experiments_md.py --check``)."""

from __future__ import annotations

import functools
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT_PATH = REPO_ROOT / "scripts" / "generate_experiments_md.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_experiments_md_under_test", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _edit_first_measured_row(text: str) -> str:
    """Bump one digit of table1's first measured row (past the registry sections)."""
    lines = text.split("\n")
    table1 = lines.index("## table1")
    row = next(i for i in range(table1, len(lines)) if "| measured |" in lines[i])
    lines[row] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), lines[row], count=1)
    return "\n".join(lines)


def test_check_compares_the_measured_sections(generator, tmp_path, monkeypatch):
    # Render once for both comparisons.
    monkeypatch.setattr(
        generator, "render_document", functools.lru_cache(maxsize=None)(generator.render_document)
    )
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(committed, encoding="utf-8")
    assert generator.check_drift(copy) == 0
    edited = _edit_first_measured_row(committed)
    assert edited != committed
    copy.write_text(edited, encoding="utf-8")
    assert generator.check_drift(copy) == 1
