"""Engine-agnostic helpers for the interconnection step (paper Section 2.3).

In phase ``i`` every cluster ``C`` of ``U_i`` (clusters that were not
superclustered) is connected to *all* clusters of ``P_i`` whose centers lie
within ``delta_i`` of ``r_C`` -- the center already knows exactly which those
are (Theorem 2.1), so the step only traces the corresponding shortest paths
back and adds their edges to the spanner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..primitives.exploration import ExplorationResult


def interconnection_requests(
    unclustered_centers: Iterable[int],
    exploration: ExplorationResult,
) -> Dict[int, List[int]]:
    """Build the trace-back request map for the interconnection step.

    For every center ``r_C`` of an unclustered cluster, the targets are all
    centers it learned about during Algorithm 1 (excluding itself).  Because
    unclustered clusters are never popular (Lemma 2.4), Theorem 2.1 guarantees
    this is exactly the set of centers within ``delta_i``.
    """
    requests: Dict[int, List[int]] = {}
    for center in unclustered_centers:
        requests[center] = [c for c in exploration.known_centers(center) if c != center]
    return requests


def interconnection_requests_from_near(
    unclustered_centers: Iterable[int],
    near_centers: Dict[int, List[int]],
) -> Dict[int, List[int]]:
    """Flat-array variant of :func:`interconnection_requests`.

    ``near_centers`` maps every center to the sorted list of other centers
    within ``delta_i`` (a :class:`~repro.primitives.exploration.CenterExploration`
    field), which is exactly the target list the exhaustive knowledge map
    would produce.  The lists are shared, not copied -- treat them as
    read-only.
    """
    return {center: near_centers[center] for center in unclustered_centers}


def flatten_requests(requests: Dict[int, List[int]]) -> List[tuple]:
    """The request map as a flat, deterministically ordered pair list.

    This is the ``interconnection_pairs`` representation stored in the phase
    records: sorted by initiating center, then by target (the target lists
    are already sorted by construction).
    """
    return [
        (center, target)
        for center in sorted(requests)
        for target in requests[center]
    ]
