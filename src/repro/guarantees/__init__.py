"""Certified worst-case latency bounds.

Two layers turn the paper's non-blocking claim into a
machine-checkable guarantee (see ``docs/guarantees.md``):

* :mod:`~repro.guarantees.bounds` — analytical per-route worst-case
  latency bounds composed from the pipeline model, with a per-scheme
  wakeup penalty; :func:`certify_non_blocking` proves PowerPunch's
  bound equals No-PG's route by route.
* :mod:`~repro.guarantees.checker` — :class:`BoundChecker`, runtime
  enforcement as a plain ``delivered`` subscriber; the ``guarantees``
  campaign cell attaches one to each network it runs.

Bounds are priced from the configuration and the scheme alone: the
network layer knows nothing of them.
"""

from .bounds import (
    BoundTerms,
    LatencyBoundModel,
    UnboundableConfigError,
    certify_non_blocking,
    wakeup_penalty_per_hop,
)
from .checker import BoundChecker

__all__ = [
    "BoundChecker",
    "BoundTerms",
    "LatencyBoundModel",
    "UnboundableConfigError",
    "certify_non_blocking",
    "wakeup_penalty_per_hop",
]
