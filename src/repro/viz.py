"""Terminal visualization helpers.

Text renderings of per-router and per-link quantities on the fabric —
handy for eyeballing where power-gating actually happens (gated-off
fraction per router), where traffic concentrates (link utilization) and
where packets get blocked.  Everything returns plain strings so it
composes with the experiment harnesses and tests.

Heatmaps lay nodes out on the mesh's ``(width, height)`` coordinate
grid.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from .core.schemes import PowerGatedScheme
from .noc.network import Network
from .noc.topology import MeshTopology

#: Shade ramp from empty to full.
_RAMP = " .:-=+*#%@"


def shade(value: float) -> str:
    """Map [0, 1] to a one-character shade."""
    value = min(1.0, max(0.0, value))
    return _RAMP[min(len(_RAMP) - 1, int(value * len(_RAMP)))]


def node_heatmap(
    topology: MeshTopology,
    values: Sequence[float],
    title: str = "",
    fmt: Callable[[float], str] = lambda v: f"{v:4.2f}",
) -> str:
    """Render per-node values on the mesh's coordinate grid."""
    if len(values) != topology.num_nodes:
        raise ValueError("need one value per node")
    peak = max(values) or 1.0
    lines = [title] if title else []
    for y in range(topology.height):
        shades = []
        numbers = []
        for x in range(topology.width):
            v = values[topology.node_at(x, y)]
            shades.append(shade(v / peak) * 4)
            numbers.append(fmt(v))
        lines.append(" ".join(shades))
        lines.append(" ".join(n.rjust(4) for n in numbers))
    return "\n".join(lines)


def gated_fraction_map(network: Network, title: str = "Gated-off fraction") -> str:
    """Heatmap of each router's gated-off time fraction."""
    policy = network.policy
    if not isinstance(policy, PowerGatedScheme):
        values = [0.0] * network.config.num_nodes
    else:
        cycles = network.cycle
        values = [
            (cycles - ctl.on_cycles) / cycles if cycles else 0.0
            for ctl in policy.controllers
        ]
    return node_heatmap(network.topology, values, title=title)


def wake_events_map(network: Network, title: str = "Wake events") -> str:
    """Heatmap of wake events per router."""
    policy = network.policy
    if not isinstance(policy, PowerGatedScheme):
        values = [0.0] * network.config.num_nodes
    else:
        values = [float(ctl.wake_events) for ctl in policy.controllers]
    return node_heatmap(
        network.topology, values, title=title, fmt=lambda v: f"{int(v):4d}"
    )


def link_load_map(network: Network, title: str = "Router forwarding load") -> str:
    """Heatmap of flits forwarded per router (all output directions)."""
    cycles = max(1, network.cycle)
    values = [
        sum(counts.values()) / cycles for counts in network.link_counts
    ]
    return node_heatmap(network.topology, values, title=title)


def latency_histogram(
    latencies: Sequence[int], bins: int = 12, width: int = 50, title: str = ""
) -> str:
    """ASCII histogram of packet latencies, e.g. each measured
    ``packet.network_latency`` a ``Network.subscribe("delivered", ...)``
    subscriber collected."""
    if not latencies:
        return "(no samples)"
    lo, hi = min(latencies), max(latencies)
    span = max(1, hi - lo)
    counts = [0] * bins
    for value in latencies:
        idx = min(bins - 1, (value - lo) * bins // span)
        counts[idx] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, count in enumerate(counts):
        left = lo + i * span // bins
        right = lo + (i + 1) * span // bins
        bar = "#" * (count * width // peak if peak else 0)
        lines.append(f"{left:5d}-{right:<5d} |{bar} {count}")
    return "\n".join(lines)


def scheme_comparison_bars(
    rows: Dict[str, float], width: int = 50, title: str = "", unit: str = ""
) -> str:
    """Horizontal bars comparing one metric across schemes."""
    peak = max(rows.values()) or 1.0
    label_width = max(len(k) for k in rows)
    lines = [title] if title else []
    for name, value in rows.items():
        bar = "#" * int(value / peak * width)
        lines.append(f"{name.ljust(label_width)} |{bar} {value:.2f}{unit}")
    return "\n".join(lines)
