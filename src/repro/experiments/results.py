"""Experiment result records and their (de)serialization.

Every table/figure experiment produces an :class:`ExperimentRecord`: a named
bundle of tabular rows, numeric series and pass/fail shape checks that can be
rendered as text (what the benchmarks print) or saved to JSON (what
EXPERIMENTS.md references).

Records produced through the experiment pipeline are *deterministic*: they
contain no wall-clock timing (the pipeline reports timing through the suite
manifest instead) and serialize identically via :meth:`ExperimentRecord.to_canonical_json`
no matter how many worker processes computed them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from ..analysis.reporting import render_series, render_table

PathLike = Union[str, Path]


def canonical_json(obj: object) -> str:
    """Canonical JSON: the single serialization behind store keys, workload
    fingerprints, payload round-trips and record byte-identity.  Any change
    here invalidates stores and breaks recorded digests -- version it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def stable_digest(obj: object) -> str:
    """Stable short content digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentRecord:
    """Outcome of one experiment (one paper table or figure)."""

    name: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        """Whether every recorded shape check passed."""
        return all(self.checks.values()) if self.checks else True

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self, max_rows: Optional[int] = None) -> str:
        """Render the record as plain text (used by the benchmark harness)."""
        lines = [f"== {self.name} ==", self.description]
        if self.parameters:
            lines.append(
                "parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            )
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        if rows:
            # Rows produced by different parts of an experiment (e.g. theory
            # vs. measured) may have different columns; render each column
            # layout as its own table so nothing shows up blank.
            groups: List[List[Dict[str, object]]] = []
            for row in rows:
                if groups and tuple(groups[-1][0].keys()) == tuple(row.keys()):
                    groups[-1].append(row)
                else:
                    groups.append([row])
            for group in groups:
                lines.append(render_table(group))
        if self.series:
            lines.append(render_series(self.series))
        if self.checks:
            lines.append(
                "checks: "
                + ", ".join(f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in sorted(self.checks.items()))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": self.parameters,
            "rows": self.rows,
            "series": self.series,
            "checks": self.checks,
            "notes": self.notes,
        }

    def to_canonical_json(self) -> str:
        """Canonical serialization: the byte-identity contract of the pipeline.

        Two records are *the same result* iff their canonical JSON matches;
        the experiment pipeline guarantees this form is identical between
        serial, process-parallel and store-resumed runs.
        """
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """Short content digest of the canonical serialization."""
        return stable_digest(self.to_dict())

    def save(self, path: PathLike) -> None:
        """Write the record as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, default=str), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentRecord":
        """Rebuild a record from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            name=data["name"],
            description=data["description"],
            parameters=data.get("parameters", {}),
            rows=data.get("rows", []),
            series={k: list(v) for k, v in data.get("series", {}).items()},
            checks={k: bool(v) for k, v in data.get("checks", {}).items()},
            notes=list(data.get("notes", [])),
        )

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentRecord":
        """Read a record previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def save_records(records: Mapping[str, ExperimentRecord], directory: PathLike) -> List[Path]:
    """Save ``{scenario name: record}`` as ``directory/<scenario name>.json``.

    Files are named after the scenario, not :attr:`ExperimentRecord.name`:
    two scenarios may merge into records of the same name (``scaling`` and
    ``scaling-large`` both build ``scaling-rounds-and-size``).  Returns the
    written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, record in records.items():
        path = directory / f"{name}.json"
        record.save(path)
        paths.append(path)
    return paths
