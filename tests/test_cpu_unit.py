"""Unit tests for the in-order core model."""


from repro.system.cpu import NEVER, Core
from repro.system.memtrace import AccessStream, StreamProfile


class ScriptedStream:
    """Deterministic access script standing in for AccessStream."""

    def __init__(self, script):
        self.script = list(script)
        self.profile = StreamProfile(overlap_fraction=0.0)
        import random

        self.rng = random.Random(0)

    def next_access(self):
        if self.script:
            return self.script.pop(0)
        return (10_000, 0, False)


class FakeL1:
    """L1 stub with scripted hit/miss behavior."""

    def __init__(self, miss_blocks=()):
        self.miss_blocks = set(miss_blocks)
        self.on_complete = None
        self.accepts = True
        self.accesses = []

    def can_accept(self, block):
        return self.accepts

    def access(self, block, is_write, cycle):
        self.accesses.append((block, is_write, cycle))
        return block not in self.miss_blocks

    def complete(self, block, cycle):
        self.on_complete(block, cycle)


class TestComputePhase:
    """A gap is credited when it is drawn; the core then sleeps through it."""

    def test_gap_is_credited_at_once_and_core_sleeps_through_it(self):
        stream = ScriptedStream([(5, 1, False)])
        l1 = FakeL1()
        core = Core(0, l1, stream, quota=10)
        assert core.retired == 5  # cycles 0..4, one instruction each
        assert core.wake_at == 5  # the memory op issues in cycle 5
        assert not core.done
        for cycle in range(5):
            core.step(cycle)  # not due: nothing happens
        assert core.retired == 5 and not l1.accesses

    def test_retires_one_instruction_per_cycle(self):
        """Quota reached mid-gap: ``done_at`` is fixed ahead of the clock."""
        stream = ScriptedStream([(5, 1, False)])
        core = Core(0, FakeL1(), stream, quota=4)
        assert core.retired == 4  # never past the quota
        assert core.done and core.done_at == 3  # 4th instruction: cycle 3
        assert core.wake_at == 0  # still due, so its owner sees it finish
        core.step(0)
        assert core.wake_at == NEVER

    def test_memory_op_issued_after_gap(self):
        stream = ScriptedStream([(2, 42, False), (100, 0, False)])
        l1 = FakeL1()
        core = Core(0, l1, stream, quota=1000)
        assert core.wake_at == 2
        for cycle in range(5):
            core.step(cycle)
        assert l1.accesses == [(42, False, 2)]  # two compute cycles first
        # The hit retires in cycle 2; the next gap runs over cycles 3..102.
        assert core.retired == 2 + 1 + 100
        assert core.wake_at == 103


class TestMissBehaviour:
    def test_blocking_miss_stalls_until_completion(self):
        stream = ScriptedStream([(0, 7, True), (3, 0, False)])
        l1 = FakeL1(miss_blocks={7})
        core = Core(0, l1, stream, quota=100)
        core.step(0)
        assert core.is_stalled
        assert core.wake_at == NEVER  # only the completion wakes it
        for cycle in range(1, 6):
            core.step(cycle)
        assert core.retired == 0
        l1.complete(7, 6)
        assert not core.is_stalled
        assert core.stall_cycles == 5  # cycles 1..5, credited on completion
        # The miss retires in cycle 6 and the core computes on in that
        # same cycle: gap of 3 over cycles 6..8, next op in cycle 9.
        assert core.retired == 1 + 3
        assert core.wake_at == 9

    def test_quota_reached_by_miss_completion(self):
        stream = ScriptedStream([(0, 7, False), (3, 0, False)])
        l1 = FakeL1(miss_blocks={7})
        core = Core(0, l1, stream, quota=1)
        core.step(0)
        l1.complete(7, 9)
        assert core.done_at == 9 and core.retired == 1
        assert core.wake_at == 9  # due in the completion cycle itself

    def test_unrelated_completion_ignored(self):
        stream = ScriptedStream([(0, 7, False), (100, 0, False)])
        l1 = FakeL1(miss_blocks={7})
        core = Core(0, l1, stream, quota=10)
        core.step(0)
        l1.complete(99, 1)
        assert core.is_stalled

    def test_structural_stall_retries_same_access(self):
        stream = ScriptedStream([(0, 7, False), (100, 0, False)])
        l1 = FakeL1()
        l1.accepts = False
        core = Core(0, l1, stream, quota=10)
        core.step(0)
        assert core.wake_at == 1  # polls: only the L1 knows when it frees up
        core.step(1)
        assert not l1.accesses  # nothing issued yet
        assert core.stall_cycles == 2
        l1.accepts = True
        core.step(2)
        assert l1.accesses == [(7, False, 2)]

    def test_done_core_stops_stepping(self):
        stream = ScriptedStream([(0, 1, False), (0, 2, False)])
        l1 = FakeL1()
        core = Core(0, l1, stream, quota=1)
        core.step(0)
        assert core.done and core.done_at == 0
        assert core.wake_at == NEVER
        core.step(1)
        assert core.retired == 1 and len(l1.accesses) == 1


class TestOverlap:
    def test_overlapped_miss_does_not_stall(self):
        profile = StreamProfile(overlap_fraction=1.0)
        stream = AccessStream(0, profile, seed=1)
        l1 = FakeL1()
        # Every access misses.
        l1.access = lambda block, w, cycle: (l1.accesses.append(block), False)[1]
        core = Core(0, l1, stream, quota=50)
        for cycle in range(400):
            core.step(cycle)
            if core.done:
                break
        assert core.done
        assert core.stall_cycles == 0
