"""Provenance certificates: which phase and step added each spanner edge.

The phase loop (:func:`~repro.core.phases.run_phases`) hands the certificate
every edge batch it adds to the spanner.  The certificate keeps the batches
as they are and builds the per-edge provenance map only when it is first
read, so the build path does constant work per batch.  The per-(phase, step)
counts of new edges are not kept here: they are the ``superclustering_edges``
and ``interconnection_edges`` of each :class:`~repro.core.result.PhaseRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from ..graphs.graph import Edge

SUPERCLUSTERING_STEP = "superclustering"
INTERCONNECTION_STEP = "interconnection"


@dataclass(frozen=True)
class EdgeProvenance:
    """Where an edge entered the spanner: phase index and step name."""

    phase: int
    step: str


@dataclass
class SpannerCertificate:
    """The edge batches of a build, each with the (phase, step) that added it."""

    _batches: List[Tuple[Collection[Edge], EdgeProvenance]] = field(default_factory=list)
    _provenance: Optional[Dict[Edge, EdgeProvenance]] = field(
        default=None, repr=False, compare=False
    )

    def record(self, edges: Collection[Edge], phase: int, step: str) -> None:
        """Record ``edges`` as added by ``(phase, step)``.

        The batch is kept, not copied: the caller must not change it later.
        """
        if step not in (SUPERCLUSTERING_STEP, INTERCONNECTION_STEP):
            raise ValueError(f"unknown step {step!r}")
        self._batches.append((edges, EdgeProvenance(phase=phase, step=step)))
        self._provenance = None

    @property
    def provenance(self) -> Dict[Edge, EdgeProvenance]:
        """``{(u, v) with u <= v: the first (phase, step) that added the edge}``."""
        if self._provenance is None:
            provenance: Dict[Edge, EdgeProvenance] = {}
            for edges, origin in self._batches:
                for u, v in edges:
                    provenance.setdefault((u, v) if u <= v else (v, u), origin)
            self._provenance = provenance
        return self._provenance
