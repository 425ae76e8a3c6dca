#!/usr/bin/env python3
"""Watching the MESI protocol work over the simulated NoC.

Drives three cores through a classic sharing pattern on one cache
block and prints every state transition plus the NoC packets that
carried the protocol messages — a compact way to see the closed-loop
substrate (cores -> L1 -> directory -> memory) in action.
"""

from repro.core import NoPG
from repro.noc import NoCConfig
from repro.system import Chip, StreamProfile
from repro.system.messages import CoherenceMessage

BLOCK = (1 << 50) + 5


def make_chip():
    chip = Chip(
        NoCConfig(width=4, height=4),
        NoPG(),
        StreamProfile(),
        instructions_per_core=1,
        seed=1,
        warm_caches=False,
    )
    for core in chip.cores:
        core.done_at = 0  # park cores; we drive the L1s ourselves
    for l1 in chip.l1s:
        l1.on_complete = lambda b, c: None
    return chip


def watch(chip, nodes, label, cycles=250):
    before = {n: chip.l1s[n].state_of(BLOCK) for n in nodes}
    seen = set()
    for _ in range(cycles):
        chip.step()
        for n in nodes:
            state = chip.l1s[n].state_of(BLOCK)
            if state != before[n] and (n, state) not in seen:
                seen.add((n, state))
                print(f"    cycle {chip.network.cycle:4d}: core {n}: "
                      f"{before[n]} -> {state}")
                before[n] = state
    home = chip.directories[chip.home_of(BLOCK)]
    entry = home.entries.get(BLOCK)
    print(f"    directory @node {chip.home_of(BLOCK)}: owner={entry.owner} "
          f"sharers={sorted(entry.sharers)}")


def main():
    chip = make_chip()
    # Trace protocol packets on the NoC.
    chip.network.subscribe(
        "delivered",
        lambda p, c: isinstance(p.payload, CoherenceMessage)
        and p.payload.block == BLOCK
        and print(f"      [NoC] {p.payload} {p.source}->{p.destination} "
                  f"({p.size_flits} flits, {p.network_latency} cyc)")
    )

    print("1) core 1 loads the block (cold: memory fetch, exclusive grant)")
    chip.l1s[1].access(BLOCK, False, chip.network.cycle)
    watch(chip, [1], "load")

    print("\n2) core 2 loads the same block (owner downgrades, both share)")
    chip.l1s[2].access(BLOCK, False, chip.network.cycle)
    watch(chip, [1, 2], "share")

    print("\n3) core 3 writes it (sharers invalidated, ownership granted)")
    chip.l1s[3].access(BLOCK, True, chip.network.cycle)
    watch(chip, [1, 2, 3], "write")

    print("\n4) core 1 reads again (dirty data forwarded from core 3)")
    chip.l1s[1].access(BLOCK, False, chip.network.cycle)
    watch(chip, [1, 3], "read-after-write")

    v = chip.l1s[1].cache.lookup(BLOCK, touch=False)
    print(f"\ncore 1 sees version {v.version} (exactly one write happened)")


if __name__ == "__main__":
    main()
