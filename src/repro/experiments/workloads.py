"""The default parameter setting every table/figure experiment uses unless overridden."""

from __future__ import annotations

from ..core.parameters import SpannerParameters


def default_parameters(epsilon: float = 0.25, kappa: int = 3, rho: float = 1.0 / 3.0) -> SpannerParameters:
    """The parameter setting used by all experiments unless overridden.

    The internal-epsilon convention is used so the phase thresholds stay
    human-scale; the resulting exact ``(1+alpha, beta)`` guarantee is reported
    alongside every measurement.
    """
    return SpannerParameters.from_internal_epsilon(epsilon, kappa, rho)
