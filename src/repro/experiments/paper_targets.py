"""The paper's reference values — the one place they are written down.

Every "(paper ...)" a report prints is formatted from an entry of
:data:`PAPER`; fractions are stored as fractions (``0.079`` is the
paper's "7.9%").  No cell payload reads them, so this file is outside
the cache salt (``repro.campaign.cache``): editing a reference number
re-runs no cell.
"""

from __future__ import annotations

PAPER = {
    # Fig. 7: average packet latency over No-PG (Sec. 6.2).
    "latency_penalty": {"ConvOpt-PG": 0.691, "PowerPunch-Signal": 0.126, "PowerPunch-PG": 0.079},
    "penalty_reduction_vs_convopt": 0.612,
    # Fig. 8: execution time over No-PG.
    "execution_penalty": {"PowerPunch-Signal": 0.023, "PowerPunch-PG": 0.004},
    # Fig. 9: powered-off routers encountered per packet, and the
    # injection-node slack's improvement over PowerPunch-Signal.
    "blocked_routers": {"ConvOpt-PG": 4.21, "PowerPunch-Signal": 1.09, "PowerPunch-PG": 0.96},
    "blocked_routers_slack_gain": 0.118,
    # Fig. 10: the same improvement measured in wakeup-wait cycles.
    "wakeup_wait_slack_gain": 0.362,
    # Fig. 11: router static energy saved (all three PG schemes) and
    # total router energy saved.
    "static_saved": 0.83,
    "total_saved": {"ConvOpt-PG": 0.503, "PowerPunch-Signal": 0.529, "PowerPunch-PG": 0.541},
    # Sec. 6.6(2): PowerPunch-PG latency reduction vs ConvOpt-PG by mesh side.
    "scalability_reduction": {4: 0.434, 8: 0.549, 16: 0.691},
    # Sec. 6.6(3): packet-latency penalty in cycles on the 64-node system.
    "penalty_cycles": {"NoRD": 9.3, "PowerPunch": 1.8},
    # Table 1 / Fig. 5 / Sec. 4.1: punch-signal encoding at R27.
    "table1_sources": "R25, R26, R27",
    "table1_sets": 22,
    "punch_bits": {"x": 5, "y": 2},
    "punch_bits_4hop": {"x": 8, "y": 2},
    # Sec. 6.6(1): extra NoC area.
    "area_overhead": 0.024,
}
