"""Synthetic per-core memory access streams.

The paper drives its NoC with multi-threaded PARSEC benchmarks under
gem5.  We substitute parameterized access streams whose knobs map to
the workload properties that matter for NoC power-gating:

* ``mem_op_fraction`` — how often the core touches memory (sets the
  compute gap between accesses);
* ``cold_fraction`` — probability a private access misses the L1
  (drawn from a large cold pool rather than the cache-resident hot
  pool), the main injection-rate control;
* ``shared_fraction`` / ``write_fraction`` — coherence traffic: shared
  writes invalidate other cores' copies and create forward/ack
  traffic on the other virtual networks;
* ``comm_accesses`` / ``compute_accesses`` — phase alternation, which
  produces the bursty idle/busy pattern that makes router power-gating
  worthwhile in the first place.

Streams are deterministic given (core_id, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

#: Address-space carving (block numbers).
_PRIVATE_STRIDE = 1 << 24
_SHARED_BASE = 1 << 44


@dataclass(frozen=True)
class StreamProfile:
    """Workload knobs for one core's access stream."""

    mem_op_fraction: float = 0.3
    cold_fraction: float = 0.01
    shared_fraction: float = 0.15
    write_fraction: float = 0.3
    hot_blocks: int = 256
    cold_blocks: int = 65536
    shared_blocks: int = 2048
    #: Accesses per communication / compute phase (0 disables phases).
    comm_accesses: int = 64
    compute_accesses: int = 192
    #: Multiplier on the compute gap during compute phases.
    compute_gap_boost: float = 3.0
    #: Fraction of misses the core can overlap with further progress
    #: (store buffers, prefetch-like accesses); the rest block retire.
    overlap_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not (0.0 < self.mem_op_fraction <= 1.0):
            raise ValueError("mem_op_fraction must be in (0, 1]")
        for name in ("cold_fraction", "shared_fraction", "write_fraction"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("hot_blocks", "cold_blocks", "shared_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def mean_gap(self) -> float:
        """Mean compute instructions between memory operations."""
        return (1.0 - self.mem_op_fraction) / self.mem_op_fraction


class AccessStream:
    """Deterministic (gap, block, is_write) generator for one core."""

    def __init__(self, core_id: int, profile: StreamProfile, seed: int = 1) -> None:
        self.core_id = core_id
        self.profile = profile
        self.rng = random.Random((seed << 20) ^ core_id)
        self._phase_comm = True
        self._phase_left = profile.comm_accesses or 1
        base = core_id * _PRIVATE_STRIDE
        #: (first block, size, size.bit_length()) of each pool an access
        #: draws from.
        self._shared_pool, self._cold_pool, self._hot_pool = (
            (first, size, size.bit_length())
            for first, size in (
                (_SHARED_BASE, profile.shared_blocks),
                (base + profile.hot_blocks, profile.cold_blocks),
                (base, profile.hot_blocks),
            )
        )
        #: Indexed by "in a communication phase": the probability of a
        #: shared access and the geometric gap's log(1 - p), per phase.
        self._shared_prob = (
            min(1.0, profile.shared_fraction * 0.5),
            min(1.0, profile.shared_fraction * 2.0),
        )
        self._gap_log = (
            self._gap_log_for(profile.mean_gap * profile.compute_gap_boost),
            self._gap_log_for(profile.mean_gap),
        )
        self.accesses_generated = 0

    @staticmethod
    def _gap_log_for(mean: float) -> Optional[float]:
        """log(1 - p) of Geometric(p = 1 / (1 + mean)), whose mean is
        exactly ``mean``; None when there is no gap to draw."""
        if mean <= 0:
            return None
        return math.log(1.0 - 1.0 / (1.0 + mean))

    # ------------------------------------------------------------------
    def next_access(self) -> Tuple[int, int, bool]:
        """Return (compute_gap, block, is_write) for the next access."""
        p = self.profile
        rng = self.rng
        uniform = rng.random
        in_comm = self._advance_phase()

        if uniform() < self._shared_prob[in_comm]:
            first, size, bits = self._shared_pool
        elif uniform() < p.cold_fraction:
            first, size, bits = self._cold_pool
        else:
            first, size, bits = self._hot_pool
        # ``rng.randrange(size)`` without its two frames: the rejection
        # loop of ``Random._randbelow``, draw for draw.
        getrandbits = rng.getrandbits
        offset = getrandbits(bits)
        while offset >= size:
            offset = getrandbits(bits)
        block = first + offset

        is_write = uniform() < p.write_fraction
        gap = 0
        gap_log = self._gap_log[in_comm]
        if gap_log is not None:
            u = uniform()
            if u > 0.0:
                gap = min(int(math.log(u) / gap_log), 10_000)
        self.accesses_generated += 1
        return gap, block, is_write

    def _advance_phase(self) -> bool:
        p = self.profile
        if p.comm_accesses <= 0 or p.compute_accesses <= 0:
            return True
        self._phase_left -= 1
        if self._phase_left <= 0:
            self._phase_comm = not self._phase_comm
            self._phase_left = (
                p.comm_accesses if self._phase_comm else p.compute_accesses
            )
        return self._phase_comm

    def __iter__(self) -> Iterator[Tuple[int, int, bool]]:
        while True:
            yield self.next_access()
