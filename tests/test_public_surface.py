"""Guard against test-only public API in ``src/``.

Every top-level public ``def``/``class`` in ``src/repro`` needs one
word-boundary reference outside its own definition: anywhere in ``src/``
(uses inside the same module count; ``__init__.py`` re-exports and
``__all__`` entries do not), or in ``examples/``, ``scripts/`` or
``perfbench/``.  A name that only tests call belongs in ``tests/`` or
nowhere -- or in :data:`KEPT`, with the reason it stays public.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "scripts", "perfbench")

#: Public names with no caller outside the tests, kept on purpose.
KEPT: Dict[str, str] = {
    "empirical_additive_term": "paper-facing analysis API: the measured additive term of a (1+eps, beta) spanner",
    "distance_histogram": "paper-facing analysis API: the distance distribution stretch is judged over",
    "verify_ruling_set": "paper-facing analysis API: Theorem 2.2's separation and domination checks",
    "beta_elkin_peleg_lower_bound": "paper-facing bound calculator: the [ABP17] lower bound on beta",
    "deterministic_congest_speedup": "paper-facing bound calculator: Table 1's Elkin'05-vs-new running-time ratio",
    "is_connected": "graph basic that test fixtures are built from",
    "bfs_tree_edges": "graph basic that test fixtures are built from",
    "star_graph": "graph generator that test fixtures are built from",
    "empty_graph": "graph generator that test fixtures are built from",
}

_WORD = re.compile(r"\w+")


def _public_definitions() -> List[Tuple[Path, str, int, int]]:
    """``(module, name, first line, last line)`` of every top-level public def/class."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found.append((path, node.name, first, node.end_lineno))
    return found


def _ignored_lines(path: Path, tree: ast.Module) -> Set[int]:
    """Lines that do not count as a use: ``__all__`` and ``__init__`` imports."""
    ignored: Set[int] = set()
    for node in tree.body:
        is_reexport = path.name == "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom))
        targets = node.targets if isinstance(node, ast.Assign) else []
        is_all = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        if is_reexport or is_all:
            ignored.update(range(node.lineno, node.end_lineno + 1))
    return ignored


def _counted_lines() -> Dict[Path, List[str]]:
    """Per file, the lines a reference may sit on (ignored lines blanked)."""
    files: Dict[Path, List[str]] = {}
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        ignored = _ignored_lines(path, ast.parse(text))
        files[path] = [
            "" if number in ignored else line
            for number, line in enumerate(text.splitlines(), start=1)
        ]
    for directory in CALLER_DIRS:
        for path in (REPO_ROOT / directory).rglob("*.py"):
            files[path] = path.read_text(encoding="utf-8").splitlines()
    return files


def _names_without_callers() -> Dict[str, str]:
    """Public names whose only references are their own definition."""
    files = _counted_lines()
    totals: Counter = Counter()
    for lines in files.values():
        for line in lines:
            totals.update(_WORD.findall(line))
    orphans = {}
    for path, name, first, last in _public_definitions():
        own = sum(_WORD.findall(line).count(name) for line in files[path][first - 1 : last])
        if totals[name] - own == 0:
            orphans[name] = str(path.relative_to(REPO_ROOT))
    return orphans


def test_every_public_name_has_a_caller_outside_the_tests():
    orphans = {name: where for name, where in _names_without_callers().items() if name not in KEPT}
    assert not orphans, (
        "public names that only tests use; delete them, move them into tests/, "
        f"or add them to KEPT with a reason: {orphans}"
    )


def test_kept_names_are_still_needed():
    stale = set(KEPT) - set(_names_without_callers())
    assert not stale, f"KEPT names that are gone or now have a caller; drop them from KEPT: {stale}"
