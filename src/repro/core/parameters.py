"""Parameter schedules of the deterministic near-additive spanner algorithm.

This module encodes every numeric schedule the paper defines:

* the number of phases ``ell = floor(log2(kappa*rho)) + ceil((kappa+1)/(kappa*rho)) - 1``
  and the split of phases ``0..ell-1`` into the *exponential growth* stage
  (``0..i0``) and the *fixed growth* stage (``i0+1..ell-1``), with ``ell`` the
  concluding phase (Section 2.1);
* the radius upper bounds ``R_i`` (paper eq. (2)) and distance thresholds
  ``delta_i = eps^{-i} + 2 R_i`` (eq. (3));
* the degree thresholds ``deg_i`` (``n^{2^i/kappa}`` in the exponential stage,
  ``n^rho`` afterwards);
* the stretch guarantee ``(1 + eps', beta)`` obtained after rescaling
  (Section 2.4.4).

Implementation note on constants.  The paper invokes a ``(2 delta_i + 1,
(2/rho) delta_i)``-ruling set (Theorem 2.2 with ``c = rho^{-1}``); an actual
implementation needs an *integer* digit count, so we use ``c = ceil(1/rho)``
and consequently grow superclusters to depth ``2 c delta_i`` (the ruling set's
true domination radius).  The radius recurrence therefore becomes

    ``R_{i+1} = 2 c delta_i + R_i``                        (implementation)

instead of the paper's ``R_{i+1} = (2/rho) eps^{-i} + (5/rho) R_i``; the two
coincide up to constant factors (``c = Theta(1/rho)``) and all asymptotic
statements of the paper are unaffected.  Every derived guarantee exposed here
(:meth:`SpannerParameters.stretch_bound`, the size/time bounds) is computed
from the *implementation* recurrences, so it is a bound our algorithm provably
satisfies and our tests verify; the paper's nominal formulas are available
separately in :mod:`repro.analysis.bounds` for the Table 1 / Table 2
reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

EXPONENTIAL_STAGE = "exponential"
FIXED_STAGE = "fixed"
CONCLUDING_STAGE = "concluding"


def _validate(epsilon: float, kappa: int, rho: float) -> None:
    if not isinstance(kappa, int):
        raise TypeError("kappa must be an integer")
    if kappa < 2:
        raise ValueError("kappa must be at least 2")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if not (1.0 / kappa <= rho + 1e-12):
        raise ValueError("rho must be at least 1/kappa")
    if rho > 0.5 + 1e-12:
        raise ValueError("rho must be at most 1/2")


@dataclass(frozen=True)
class StretchGuarantee:
    """The ``(1 + alpha, beta)`` stretch guarantee of a parameter setting."""

    multiplicative: float
    additive: float

    def allows(self, d_graph: float, d_spanner: float, slack: float = 1e-9) -> bool:
        """Whether a measured pair of distances satisfies the guarantee."""
        return d_spanner <= self.multiplicative * d_graph + self.additive + slack


def guarantee_from_schedules(radii: List[int], deltas: List[int]) -> StretchGuarantee:
    """Compute a ``(1 + alpha, beta)`` guarantee from radius/threshold schedules.

    This is the generic form of the paper's Lemma 2.16 argument and applies to
    any superclustering-and-interconnection construction that guarantees, for
    every phase ``i >= 1``:

    * cluster radii in the spanner are at most ``radii[i]``,
    * every *unclustered* cluster of phase ``i`` is connected by a shortest
      path to every cluster center within ``deltas[i]`` of its center, and
    * ``deltas[i] >= 2 * radii[i] + 1`` and ``3 * radii[j] <= radii[i]`` for
      ``j < i``.

    The recursion is ``B_i = 6 R_i + 2 B_{i-1}`` (cost of one segment of
    length ``L_i = deltas[i] - 2 R_i``) and ``A_i = A_{i-1} + B_i / L_i``.
    Both the deterministic algorithm and the randomized/centralized baselines
    satisfy the premises, so they all report their guarantees through this
    single function.
    """
    if len(radii) != len(deltas):
        raise ValueError("radii and deltas must have the same length")
    alpha = 0.0
    beta = 0.0
    for i in range(1, len(radii)):
        segment_cost = 6.0 * radii[i] + 2.0 * beta
        length = max(1, deltas[i] - 2 * radii[i])
        alpha += segment_cost / length
        beta = segment_cost
    return StretchGuarantee(multiplicative=1.0 + alpha, additive=beta)


@dataclass(frozen=True)
class SpannerParameters:
    """Immutable bundle of the algorithm's parameters and derived schedules.

    Attributes
    ----------
    epsilon:
        The *internal* epsilon driving the phase thresholds (the paper's
        pre-rescaling epsilon).
    kappa:
        Sparseness parameter; the spanner has ``O(beta * n^{1+1/kappa})`` edges.
    rho:
        Running-time parameter; the algorithm runs in ``O(beta * n^rho / rho)``
        rounds.  Must satisfy ``1/kappa <= rho <= 1/2``.
    user_epsilon:
        When the instance was produced by :meth:`from_user_epsilon`, the
        requested user-facing epsilon (the guaranteed multiplicative stretch
        is then at most ``1 + user_epsilon``).
    """

    epsilon: float
    kappa: int
    rho: float
    user_epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        _validate(self.epsilon, self.kappa, self.rho)

    def _memo(self, key: str, compute) -> object:
        """Per-instance memo for derived schedules.

        The dataclass is frozen but not slotted, so lazily computed values can
        ride in ``__dict__`` without affecting equality/hash/repr (those are
        generated from the declared fields only).  The engines query ``ell``,
        ``delta(i)`` and the radius schedule hundreds of times per build, so
        these all become O(1) after first use.
        """
        value = self.__dict__.get(key)
        if value is None:
            value = compute()
            object.__setattr__(self, key, value)
        return value

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_internal_epsilon(cls, epsilon: float, kappa: int, rho: float) -> "SpannerParameters":
        """Use ``epsilon`` directly as the phase-threshold epsilon (no rescaling)."""
        return cls(epsilon=epsilon, kappa=kappa, rho=rho)

    @classmethod
    def from_user_epsilon(
        cls,
        user_epsilon: float,
        kappa: int,
        rho: float,
        tolerance: float = 1e-9,
    ) -> "SpannerParameters":
        """Pick the internal epsilon so that the multiplicative stretch is ``<= 1 + user_epsilon``.

        The paper rescales ``eps' = 30 * eps * ell / rho`` (Section 2.4.4); we
        instead binary-search the largest internal epsilon whose *computed*
        stretch recurrence stays below the requested value -- this yields a
        guarantee that holds verbatim for the implementation (and is never
        weaker than the paper's rescaling).
        """
        if not (0.0 < user_epsilon <= 1.0):
            raise ValueError("user_epsilon must lie in (0, 1]")
        _validate(0.5, kappa, rho)
        low, high = 1e-9, 1.0
        # Make sure the lower end satisfies the requirement; it always does
        # because the multiplicative surplus vanishes as epsilon -> 0.
        best = low
        for _ in range(60):
            mid = (low + high) / 2.0
            candidate = cls(epsilon=mid, kappa=kappa, rho=rho)
            if candidate.stretch_bound().multiplicative <= 1.0 + user_epsilon + tolerance:
                best = mid
                low = mid
            else:
                high = mid
        return cls(epsilon=best, kappa=kappa, rho=rho, user_epsilon=user_epsilon)

    # ------------------------------------------------------------------
    # Phase structure
    # ------------------------------------------------------------------
    @property
    def i0(self) -> int:
        """Last phase of the exponential growth stage: ``floor(log2(kappa*rho))``."""
        return self._memo(
            "_i0_memo",
            lambda: int(math.floor(math.log2(self.kappa * self.rho) + 1e-12)),
        )

    @property
    def ell(self) -> int:
        """Index of the concluding phase (paper: ``blog kappa*rho c + ceil((kappa+1)/(kappa*rho)) - 1``)."""
        return self._memo(
            "_ell_memo",
            lambda: self.i0
            + int(math.ceil((self.kappa + 1) / (self.kappa * self.rho) - 1e-12))
            - 1,
        )

    @property
    def i1(self) -> int:
        """Last phase of the fixed growth stage (``ell - 1``)."""
        return self.ell - 1

    @property
    def num_phases(self) -> int:
        """Total number of phases, ``ell + 1`` (phases are indexed ``0..ell``)."""
        return self.ell + 1

    @property
    def domination_multiplier(self) -> int:
        """The integer digit count ``c = ceil(1/rho)`` used by the ruling-set procedure."""
        return self._memo(
            "_domination_memo", lambda: int(math.ceil(1.0 / self.rho - 1e-12))
        )

    def stage(self, i: int) -> str:
        """Return which stage phase ``i`` belongs to."""
        self._check_phase(i)
        if i <= self.i0:
            return EXPONENTIAL_STAGE
        if i <= self.i1:
            return FIXED_STAGE
        return CONCLUDING_STAGE

    def phases(self) -> range:
        """Iterate over all phase indices ``0..ell``."""
        return range(self.num_phases)

    def _check_phase(self, i: int) -> None:
        if not 0 <= i <= self.ell:
            raise ValueError(f"phase index {i} out of range [0, {self.ell}]")

    # ------------------------------------------------------------------
    # Distance / radius schedules (implementation recurrences, integer-valued)
    # ------------------------------------------------------------------
    def radius_bounds(self) -> List[int]:
        """Return ``[R_0, ..., R_ell]``: upper bounds on cluster radii per phase.

        ``R_0 = 0`` and ``R_{i+1} = 2 c delta_i + R_i`` where ``delta_i`` is
        the integer distance threshold of phase ``i``; see the module
        docstring for why the implementation recurrence differs from the
        paper's eq. (2) by constant factors.
        """
        return list(self._radius_schedule())

    def _radius_schedule(self) -> List[int]:
        """Memoized ``[R_0, ..., R_ell]`` (do not mutate the returned list)."""
        def compute() -> List[int]:
            c = self.domination_multiplier
            radii = [0]
            for i in range(self.ell):
                delta_i = self._delta_from_radius(i, radii[i])
                radii.append(2 * c * delta_i + radii[i])
            return radii

        return self._memo("_radius_memo", compute)

    def _delta_from_radius(self, i: int, radius: int) -> int:
        return int(math.ceil(self.epsilon ** (-i) - 1e-9)) + 2 * radius

    def radius_bound(self, i: int) -> int:
        """``R_i`` for a single phase."""
        self._check_phase(i)
        return self._radius_schedule()[i]

    def delta(self, i: int) -> int:
        """Distance threshold ``delta_i = ceil(eps^{-i}) + 2 R_i`` (paper eq. (3), integer form)."""
        self._check_phase(i)
        return self._delta_schedule()[i]

    def deltas(self) -> List[int]:
        """All distance thresholds ``[delta_0, ..., delta_ell]``."""
        return list(self._delta_schedule())

    def _delta_schedule(self) -> List[int]:
        """Memoized ``[delta_0, ..., delta_ell]`` (do not mutate)."""
        def compute() -> List[int]:
            radii = self._radius_schedule()
            return [
                self._delta_from_radius(i, radii[i]) for i in range(self.num_phases)
            ]

        return self._memo("_delta_memo", compute)

    def ruling_set_q(self, i: int) -> int:
        """Separation parameter handed to the ruling-set procedure (``2 delta_i``)."""
        return 2 * self.delta(i)

    def superclustering_depth(self, i: int) -> int:
        """Depth of the supercluster-growing BFS forest (``c * 2 delta_i``)."""
        return self.domination_multiplier * self.ruling_set_q(i)

    # ------------------------------------------------------------------
    # Degree thresholds
    # ------------------------------------------------------------------
    def degree_threshold(self, i: int, num_vertices: int) -> int:
        """``deg_i``: ``ceil(n^{2^i/kappa})`` in the exponential stage, ``ceil(n^rho)`` afterwards."""
        self._check_phase(i)
        if num_vertices <= 1:
            return 1
        if i <= self.i0:
            exponent = (2 ** i) / self.kappa
        else:
            exponent = self.rho
        return max(1, int(math.ceil(num_vertices ** exponent - 1e-9)))

    def degree_thresholds(self, num_vertices: int) -> List[int]:
        """All degree thresholds ``[deg_0, ..., deg_ell]``."""
        return [self.degree_threshold(i, num_vertices) for i in self.phases()]

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------
    def segment_length(self, i: int) -> int:
        """Length of the path segments used in the stretch argument for phase ``i``."""
        self._check_phase(i)
        return max(1, self.delta(i) - 2 * self.radius_bound(i))

    def stretch_bound(self) -> StretchGuarantee:
        """Compute the ``(1 + alpha, beta)`` guarantee of this parameter setting.

        The recurrence follows the paper's Lemma 2.16 argument with the
        implementation constants:

        * ``A_0 = B_0 = 0``;
        * ``B_i = 6 R_i + 2 B_{i-1}``  (cost of one length-``L_i`` segment);
        * ``A_i = A_{i-1} + B_i / L_i``  (amortizing one segment cost per
          ``L_i`` graph edges).

        The final guarantee is ``(1 + A_ell, B_ell)``.
        """
        return self._memo(
            "_stretch_memo",
            lambda: guarantee_from_schedules(
                self._radius_schedule(), self._delta_schedule()
            ),
        )

    def beta(self) -> float:
        """The additive term ``beta`` of the stretch guarantee."""
        return self.stretch_bound().additive

    def paper_beta(self) -> float:
        """The paper's nominal additive term ``eps^{-ell}`` after rescaling (eq. (17))."""
        return self.epsilon ** (-self.ell)

    # ------------------------------------------------------------------
    # Resource bounds
    # ------------------------------------------------------------------
    def size_bound(self, num_vertices: int) -> float:
        """Upper bound on ``|H|`` implied by the per-phase accounting (Lemma 2.12 analogue).

        Every phase adds at most ``n - 1`` superclustering (forest) edges plus
        at most ``min(|P_i| deg_i, n^{1+1/kappa} + n) * delta_i``
        interconnection edges; the concluding phase adds at most
        ``n^{2 rho} * delta_ell`` interconnection edges.
        """
        n = max(1, num_vertices)
        total = 0.0
        deltas = self.deltas()
        for i in self.phases():
            total += max(0, n - 1)
            interconnection_paths = n ** (1.0 + 1.0 / self.kappa) + n
            if i == self.ell:
                interconnection_paths = min(interconnection_paths, n ** (2.0 * self.rho) + n)
            total += interconnection_paths * deltas[i]
        return total

    def round_bound(self, num_vertices: int) -> float:
        """The nominal CONGEST rounds of the full algorithm.

        Sums, per phase: Algorithm 1 (``1 + deg_i * delta_i``), the ruling set
        (``c * ceil(n^{1/c}) * 2 delta_i``), the supercluster BFS forest and
        its path mark-up (``2 c delta_i`` each), and the interconnection
        trace-back (``deg_i * delta_i``).  Both engines charge this fixed
        schedule in full, idle steps included, so for ``n >= 2`` it equals
        their ``nominal_rounds`` exactly, not only as an upper bound.
        """
        n = max(2, num_vertices)
        c = self.domination_multiplier
        base = max(2, math.ceil(n ** (1.0 / c)))
        total = 0.0
        deltas = self.deltas()
        for i in self.phases():
            deg_i = self.degree_threshold(i, n)
            delta_i = deltas[i]
            total += 1 + deg_i * delta_i  # Algorithm 1
            total += deg_i * delta_i      # interconnection trace-back
            if i < self.ell:
                total += c * base * 2 * delta_i   # ruling set
                total += 2 * c * delta_i          # supercluster forest
                total += 2 * c * delta_i          # forest path mark-up
        return total

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def describe(self, num_vertices: Optional[int] = None) -> Dict[str, object]:
        """Return a JSON-friendly summary of the schedules (optionally for a given ``n``)."""
        guarantee = self.stretch_bound()
        info: Dict[str, object] = {
            "epsilon": self.epsilon,
            "user_epsilon": self.user_epsilon,
            "kappa": self.kappa,
            "rho": self.rho,
            "ell": self.ell,
            "i0": self.i0,
            "i1": self.i1,
            "domination_multiplier": self.domination_multiplier,
            "radius_bounds": self.radius_bounds(),
            "deltas": self.deltas(),
            "multiplicative_stretch": guarantee.multiplicative,
            "additive_stretch": guarantee.additive,
            "paper_beta": self.paper_beta(),
            "stages": [self.stage(i) for i in self.phases()],
        }
        if num_vertices is not None:
            info["degree_thresholds"] = self.degree_thresholds(num_vertices)
            info["size_bound"] = self.size_bound(num_vertices)
            info["round_bound"] = self.round_bound(num_vertices)
        return info


DEFAULT_PARAMETERS = SpannerParameters(epsilon=0.25, kappa=3, rho=1.0 / 3.0)
