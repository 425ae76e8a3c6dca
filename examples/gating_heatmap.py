#!/usr/bin/env python3
"""Where does power-gating actually happen?  Spatial view.

Runs transpose traffic (spatially uneven by construction) under
PowerPunch-PG and renders per-router gated-off fractions and wake
counts as terminal heatmaps, plus a latency histogram.  The diagonal
of a transpose pattern carries no traffic, so those routers should be
dark (mostly off); the busy anti-diagonal stays lit.
"""

from repro.core import PowerPunchPG
from repro.noc import Network, NoCConfig
from repro.traffic import SyntheticTraffic, measure
from repro.viz import gated_fraction_map, latency_histogram, wake_events_map


def main():
    scheme = PowerPunchPG()
    net = Network(NoCConfig(), scheme)
    latencies = []

    def sample(packet, cycle):
        # Warmup packets stay out, as they do in every stats average.
        if packet.created_at >= net.stats.measure_from:
            latencies.append(packet.network_latency)

    net.subscribe("delivered", sample)
    traffic = SyntheticTraffic(net, "transpose", 0.02, seed=3)
    measure(net, traffic, warmup=1000, measurement=6000)

    print(gated_fraction_map(net, title="Gated-off fraction per router (transpose @ 0.02)"))
    print()
    print(wake_events_map(net, title="Wake events per router"))
    print()
    print(latency_histogram(latencies, title="Packet latency distribution (cycles)"))


if __name__ == "__main__":
    main()
