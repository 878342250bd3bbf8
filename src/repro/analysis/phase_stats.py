"""Per-run verification of the paper's structural lemmas.

Every exact statement the paper proves about the construction is re-checked
here on concrete runs:

* **Lemma 2.3** -- cluster radii in the spanner are bounded by ``R_i``;
* **Lemma 2.4** -- every popular cluster is superclustered;
* **Corollary 2.5** -- the unclustered collections ``U_0..U_ell`` partition ``V``;
* **Lemmas 2.10 / 2.11** -- the per-phase cluster-count bounds;
* **cluster-flow conservation** -- the per-phase counters the engines record
  off the flat :class:`~repro.core.cluster_table.ClusterTable` (clusters in,
  clusters out, merge batch size, forest edges) are mutually consistent;
* **Theorem 2.2** -- the ruling set's separation and domination;
* **Theorem 2.1 / interconnection** -- interconnected pairs are within
  ``delta_i`` and are joined by *shortest* paths in the spanner;
* the interconnection-path budget of Lemma 2.12;
* basic sanity: the spanner is a subgraph and preserves connectivity.

The same report object drives both the test-suite and the Figure 1-6
benchmark experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.result import RunResult
from ..graphs.bfs import bfs_distances
from ..graphs.components import same_component_structure


@dataclass
class CheckResult:
    """Outcome of one lemma check.

    ``category`` classifies the guarantee for fault-degradation reporting:
    ``"safety"`` marks guarantees that must survive *any* fault schedule
    (recorded structures are real), ``"exactness"`` marks guarantees that an
    injected fault schedule is allowed to degrade (completeness, optimality),
    and ``""`` leaves the check unclassified (the fault-free lemma checks).
    """

    name: str
    passed: bool
    details: str = ""
    category: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


@dataclass
class VerificationReport:
    """Collection of lemma checks for one run."""

    checks: List[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, details: str = "", category: str = "") -> None:
        self.checks.append(
            CheckResult(name=name, passed=passed, details=details, category=category)
        )

    @property
    def all_passed(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    def failures(self) -> List[CheckResult]:
        """The failed checks."""
        return [check for check in self.checks if not check.passed]

    def by_name(self, name: str) -> CheckResult:
        """Look up a check by name."""
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def survived(self) -> List[str]:
        """Names of the guarantees that held on this run, sorted."""
        return sorted(check.name for check in self.checks if check.passed)

    def degraded(self) -> List[str]:
        """Names of the guarantees that did not hold on this run, sorted."""
        return sorted(check.name for check in self.checks if not check.passed)

    @property
    def safety_intact(self) -> bool:
        """Whether every ``"safety"``-category guarantee held.

        Safety guarantees must survive any fault schedule; a faulted run is
        *verified degraded* when this is true even if exactness checks
        failed.  Vacuously true for reports without categorized checks.
        """
        return all(check.passed for check in self.checks if check.category == "safety")

    def to_dict(self) -> Dict[str, object]:
        return {
            "all_passed": self.all_passed,
            "safety_intact": self.safety_intact,
            "survived": self.survived(),
            "degraded": self.degraded(),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "details": c.details,
                    "category": c.category,
                }
                for c in self.checks
            ],
        }


def verify_run(result: RunResult) -> VerificationReport:
    """Run every structural check on a run of the paper's algorithm.

    ``result`` is an engine run (``new-centralized`` / ``new-distributed``),
    from :func:`repro.build` or :func:`repro.build_spanner`; baseline runs
    (``engine is None``) carry no phase structure to verify and are rejected.
    """
    if result.engine is None:
        raise TypeError(
            f"verify_run needs an engine run; {result.algorithm!r} is not an engine algorithm"
        )
    report = VerificationReport()
    _check_subgraph(result, report)
    _check_connectivity(result, report)
    _check_partition(result, report)
    _check_radii(result, report)
    _check_popular_superclustered(result, report)
    _check_cluster_counts(result, report)
    _check_phase_counter_conservation(result, report)
    _check_ruling_sets(result, report)
    _check_interconnection_budget(result, report)
    _check_interconnection_paths(result, report)
    return report


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _check_subgraph(result: RunResult, report: VerificationReport) -> None:
    ok = result.spanner.is_subgraph_of(result.graph)
    report.add("spanner-is-subgraph", ok)


def _check_connectivity(result: RunResult, report: VerificationReport) -> None:
    ok = same_component_structure(result.graph, result.spanner)
    report.add("connectivity-preserved", ok)


def _check_partition(result: RunResult, report: VerificationReport) -> None:
    ok = result.unclustered_partitions_vertices()
    report.add("corollary-2.5-partition", ok)


def _check_radii(result: RunResult, report: VerificationReport) -> None:
    bounds = result.parameters.radius_bounds()
    worst_violation = ""
    ok = True
    for i, collection in enumerate(result.cluster_history):
        if len(collection) == 0:
            continue
        try:
            measured = collection.max_radius_in(result.spanner)
        except ValueError as exc:
            ok = False
            worst_violation = f"phase {i}: cluster disconnected in the spanner ({exc})"
            break
        if measured > bounds[i]:
            ok = False
            worst_violation = f"phase {i}: radius {measured} > bound {bounds[i]}"
            break
    report.add("lemma-2.3-radius-bounds", ok, worst_violation)


def _check_popular_superclustered(result: RunResult, report: VerificationReport) -> None:
    ok = True
    details = ""
    for record in result.phase_records:
        if record.index >= result.parameters.ell:
            continue
        missing = set(record.popular_centers) - set(record.superclustered_centers)
        if missing:
            ok = False
            details = f"phase {record.index}: popular centers not superclustered: {sorted(missing)[:5]}"
            break
    report.add("lemma-2.4-popular-superclustered", ok, details)


def _check_cluster_counts(result: RunResult, report: VerificationReport) -> None:
    parameters = result.parameters
    n = max(1, result.num_vertices)
    ok = True
    details = ""
    for record in result.phase_records:
        i = record.index
        if i <= parameters.i0 + 1:
            bound = n ** (1.0 - (2 ** i - 1) / parameters.kappa)
        else:
            bound = n ** (1.0 + 1.0 / parameters.kappa - (i - parameters.i0) * parameters.rho)
        if record.num_clusters > bound * (1.0 + 1e-9):
            ok = False
            details = f"phase {i}: {record.num_clusters} clusters > bound {bound:.2f}"
            break
    report.add("lemmas-2.10-2.11-cluster-counts", ok, details)


def _check_phase_counter_conservation(
    result: RunResult, report: VerificationReport
) -> None:
    """The engine-recorded cluster-flow counters are mutually consistent.

    These are the counters the engines read straight off the
    :class:`~repro.core.cluster_table.ClusterTable` at every phase boundary
    (no set sizes are recomputed here): every phase splits its ``|P_i|``
    clusters into the merge batch and the retired set, the clusters handed to
    phase ``i+1`` are exactly ``clusters_out``, and the superclustering step
    never deduplicates more forest-path edges than it produced.
    """
    ok = True
    details = ""
    records = result.phase_records
    for record in records:
        if record.cluster_merges + record.num_unclustered != record.num_clusters:
            ok = False
            details = (
                f"phase {record.index}: merges {record.cluster_merges} + "
                f"unclustered {record.num_unclustered} != clusters {record.num_clusters}"
            )
            break
        if record.superclustering_edges > record.forest_edges:
            ok = False
            details = (
                f"phase {record.index}: {record.superclustering_edges} new "
                f"superclustering edges from only {record.forest_edges} forest edges"
            )
            break
    if ok:
        for prev, nxt in zip(records, records[1:]):
            if prev.clusters_out != nxt.num_clusters:
                ok = False
                details = (
                    f"phase {prev.index} handed {prev.clusters_out} clusters on, "
                    f"but phase {nxt.index} received {nxt.num_clusters}"
                )
                break
    report.add("cluster-flow-conservation", ok, details)


def _check_ruling_sets(result: RunResult, report: VerificationReport) -> None:
    graph = result.graph
    parameters = result.parameters
    separation_ok = True
    domination_ok = True
    subset_ok = True
    details = ""
    for record in result.phase_records:
        if not record.ruling_set:
            continue
        delta = record.delta
        separation = 2 * delta + 1
        domination = parameters.domination_multiplier * 2 * delta
        members = sorted(record.ruling_set)
        if not set(members) <= set(record.popular_centers):
            subset_ok = False
            details = f"phase {record.index}: ruling set not a subset of W_i"
            break
        for index, u in enumerate(members):
            near = bfs_distances(graph, u, max_depth=separation - 1)
            for v in members[index + 1:]:
                if v in near:
                    separation_ok = False
                    details = (
                        f"phase {record.index}: ruling-set vertices {u},{v} at distance {near[v]}"
                    )
                    break
            if not separation_ok:
                break
        if not separation_ok:
            break
        # Domination of every popular center.
        dominated = set()
        for u in members:
            dominated.update(bfs_distances(graph, u, max_depth=domination).keys())
        missing = set(record.popular_centers) - dominated
        if missing:
            domination_ok = False
            details = f"phase {record.index}: popular centers not dominated: {sorted(missing)[:5]}"
            break
    report.add("theorem-2.2-ruling-set-subset", subset_ok, details if not subset_ok else "")
    report.add("theorem-2.2-ruling-set-separation", separation_ok, details if not separation_ok else "")
    report.add("theorem-2.2-ruling-set-domination", domination_ok, details if not domination_ok else "")


def _check_interconnection_budget(result: RunResult, report: VerificationReport) -> None:
    ok = True
    details = ""
    for record in result.phase_records:
        per_center: Dict[int, int] = {}
        for center, _target in record.interconnection_pairs:
            per_center[center] = per_center.get(center, 0) + 1
        too_many = {c: k for c, k in per_center.items() if k >= record.degree_threshold}
        if too_many:
            ok = False
            details = (
                f"phase {record.index}: centers exceeding the deg_i budget: "
                f"{dict(list(too_many.items())[:3])}"
            )
            break
    report.add("lemma-2.12-interconnection-budget", ok, details)


def _check_interconnection_paths(result: RunResult, report: VerificationReport) -> None:
    """Interconnected pairs lie within delta_i and get *shortest* paths in H."""
    graph = result.graph
    spanner = result.spanner
    ok = True
    details = ""
    for record in result.phase_records:
        if not record.interconnection_pairs:
            continue
        by_center: Dict[int, List[int]] = {}
        for center, target in record.interconnection_pairs:
            by_center.setdefault(center, []).append(target)
        for center, targets in by_center.items():
            dist_graph = bfs_distances(graph, center, max_depth=record.delta)
            dist_spanner = bfs_distances(spanner, center, max_depth=record.delta)
            for target in targets:
                if target not in dist_graph:
                    ok = False
                    details = (
                        f"phase {record.index}: pair ({center},{target}) farther than delta"
                    )
                    break
                if dist_spanner.get(target) != dist_graph[target]:
                    ok = False
                    details = (
                        f"phase {record.index}: pair ({center},{target}) not joined by a "
                        f"shortest path in H"
                    )
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("theorem-2.1-shortest-interconnection-paths", ok, details)
