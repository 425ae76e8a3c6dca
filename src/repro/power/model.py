"""Router energy accounting (the paper's Fig. 11 and Fig. 12 metrics).

Energy is a linear function of what a run did — one activity record
(``repro.noc.Activity``: cycles, router and link traversals, powered-on
router-cycles, wake events, punch transmissions) — decomposed exactly
as in Fig. 11:

* **dynamic** — per-flit router and link traversal energy;
* **static** — leakage of powered-on (or waking) routers;
* **power-gating overhead** — everything power-gating wastes: the
  sleep/wake event energy, the always-on PG controllers, and the
  generation/propagation of punch signals.

For the fair comparison of Sec. 6.3, ``net_static`` adds the overhead
to the static component.  :func:`account` prices a record and reads no
simulator state, so a record stored in a campaign payload re-prices at
any constants without a simulation (the break-even-time ablation does
exactly that); :class:`EnergyModel` is its wrapper for a live network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PowerConstants


@dataclass
class EnergyBreakdown:
    """Energy totals (joules) over an accounting window of ``cycles``."""

    dynamic: float
    static: float
    overhead: float
    cycles: int
    num_routers: int

    @property
    def total(self) -> float:
        """Dynamic + static + overhead energy (J)."""
        return self.dynamic + self.static + self.overhead

    @property
    def net_static(self) -> float:
        """Static energy charged with the PG overhead (Sec. 6.3)."""
        return self.static + self.overhead


def account(activity, constants: PowerConstants = DEFAULT_CONSTANTS) -> EnergyBreakdown:
    """The energy of one activity record (a ``repro.noc.Activity``:
    a whole run's, or a window's) at ``constants``."""
    c = constants
    dynamic = (
        activity.router_traversals * c.flit_router_energy
        + activity.link_traversals * c.flit_link_energy
    )
    static = activity.on_cycles * c.router_static_energy_per_cycle

    overhead = 0.0
    if activity.gated:
        overhead += activity.wake_events * c.power_gate_event_energy
        overhead += activity.punch_transmissions * c.punch_link_energy
        overhead += (
            activity.cycles * activity.num_routers * c.controller_static_energy_per_cycle
        )
    return EnergyBreakdown(
        dynamic=dynamic,
        static=static,
        overhead=overhead,
        cycles=activity.cycles,
        num_routers=activity.num_routers,
    )


class EnergyModel:
    """:func:`account` at fixed constants, read off a live network."""

    def __init__(self, constants: PowerConstants = DEFAULT_CONSTANTS) -> None:
        self.constants = constants

    def snapshot(self, network):
        """The network's activity so far: a later :meth:`account` can
        cover the window since it."""
        return network.activity()

    def account(self, network, since=None) -> EnergyBreakdown:
        """Energy consumed since ``since`` (or since the beginning)."""
        activity = network.activity()
        return account(activity if since is None else activity - since, self.constants)
