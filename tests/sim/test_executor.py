"""The discrete-event executor: ordering, completion, accounting."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.executor import Executor, SimThread


def _workload(thread, costs):
    for cost in costs:
        start = thread.clock.now
        thread.clock.charge("work", cost)
        thread.record_op(start)
        yield


class TestExecutor:
    def test_runs_all_ops(self):
        executor = Executor()
        t1, t2 = SimThread(core=0, tid=0), SimThread(core=1, tid=1)
        executor.add(t1, _workload(t1, [10] * 5))
        executor.add(t2, _workload(t2, [10] * 3))
        result = executor.run()
        assert result.total_ops == 8
        assert t1.ops_completed == 5
        assert t2.ops_completed == 3

    def test_min_clock_ordering(self):
        """The slower thread never races ahead of the faster by more than an op."""
        order = []

        def tracked(thread, cost, count):
            for _ in range(count):
                order.append((thread.name, thread.clock.now))
                thread.clock.charge("work", cost)
                yield

        executor = Executor()
        fast = SimThread(core=0, name="fast", tid=0)
        slow = SimThread(core=1, name="slow", tid=1)
        executor.add(fast, tracked(fast, 10, 10))
        executor.add(slow, tracked(slow, 100, 10))
        executor.run()
        # Every step executes the thread with the minimum clock.
        times = [t for _, t in order]
        assert times == sorted(times)

    def test_makespan(self):
        executor = Executor()
        t1, t2 = SimThread(core=0, tid=0), SimThread(core=1, tid=1)
        executor.add(t1, _workload(t1, [100]))
        executor.add(t2, _workload(t2, [250]))
        result = executor.run()
        assert result.makespan_cycles == 250

    def test_backwards_time_detected(self):
        def evil(thread):
            thread.clock.now -= 10
            yield

        executor = Executor()
        thread = SimThread(core=0, tid=0)
        thread.clock.now = 100
        executor.add(thread, evil(thread))
        with pytest.raises(SimulationError):
            executor.run()

    def test_max_ops_guard(self):
        def forever(thread):
            while True:
                thread.clock.charge("spin", 1)
                yield

        executor = Executor()
        thread = SimThread(core=0, tid=0)
        executor.add(thread, forever(thread))
        with pytest.raises(SimulationError):
            executor.run(max_ops=100)

    def test_latencies_recorded(self):
        executor = Executor()
        thread = SimThread(core=0, tid=0)
        executor.add(thread, _workload(thread, [5, 15, 25]))
        result = executor.run()
        merged = result.merged_latencies()
        assert merged.count == 3
        assert merged.max() == 25

    def test_merged_breakdown(self):
        executor = Executor()
        t1, t2 = SimThread(core=0, tid=0), SimThread(core=1, tid=1)
        executor.add(t1, _workload(t1, [10]))
        executor.add(t2, _workload(t2, [20]))
        result = executor.run()
        assert result.merged_breakdown().get("work") == 30

    def test_throughput(self):
        executor = Executor()
        thread = SimThread(core=0, tid=0)
        executor.add(thread, _workload(thread, [2_400_000_000]))
        result = executor.run()
        assert result.throughput_ops_per_sec() == pytest.approx(1.0)


class TestRunThreads:
    """Several threads on one executor, each with its own tid."""

    def test_runs_every_thread(self):
        executor = Executor()
        for tid in range(3):
            thread = SimThread(core=tid, tid=tid)
            executor.add(thread, _workload(thread, [10] * 4))
        result = executor.run()
        assert result.total_ops == 12
        assert [t.tid for t in result.threads] == [0, 1, 2]

    def test_start_offsets(self):
        executor = Executor()
        for tid in range(2):
            thread = SimThread(core=tid, tid=tid)
            thread.clock.now = tid * 1000.0
            executor.add(thread, _workload(thread, [10]))
        assert executor.run().makespan_cycles == 1010

    def test_core_pinning(self):
        executor = Executor()
        for tid, core in enumerate([5, 9]):
            thread = SimThread(core, tid=tid)
            executor.add(thread, _workload(thread, [1]))
        assert [t.core for t in executor.run().threads] == [5, 9]
