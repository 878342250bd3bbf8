"""The nine baseline constructions the paper's tables compare against.

* near-additive spanners: Elkin-Neiman'17, Elkin-Peleg'01 and the
  Elkin'05-style surrogate;
* multiplicative spanners: Baswana-Sen and greedy;
* the survey-tier siblings: Elkin's distributed MST, the sparse-schedule
  Elkin-Matar and Elkin-Neiman spanners, and the EEST low-stretch spanning
  tree.

Elkin-Peleg'01, Elkin-Neiman'17 and both sparse-schedule spanners share one
superclustering-and-interconnection loop in :mod:`.cluster_scan` and differ
only in their host rule and degree schedule; the Elkin'05 surrogate runs the
paper's own phase loop (:func:`repro.core.phases.run_phases`).  All five
explore and trace back with the centralized engine's primitives.  Every builder
returns a :class:`~repro.core.result.RunResult` labelled with its
registered name, which the registry wrappers in
:mod:`repro.algorithms.builtin` hand back unchanged.
"""

from .baswana_sen import build_baswana_sen_spanner
from .cluster_scan import (
    build_elkin_matar_spanner,
    build_elkin_neiman_sparse_spanner,
    build_elkin_neiman_spanner,
    build_elkin_peleg_spanner,
)
from .elkin05_surrogate import build_elkin05_surrogate_spanner
from .greedy import build_greedy_spanner
from .low_stretch_tree import build_low_stretch_tree, declared_average_stretch_bound
from .mst import build_elkin_mst

__all__ = [
    "build_baswana_sen_spanner",
    "build_elkin05_surrogate_spanner",
    "build_elkin_matar_spanner",
    "build_elkin_mst",
    "build_elkin_neiman_spanner",
    "build_elkin_neiman_sparse_spanner",
    "build_elkin_peleg_spanner",
    "build_greedy_spanner",
    "build_low_stretch_tree",
    "declared_average_stretch_bound",
]
