"""YCSB: Table 1 workload mixes and driver behaviour."""

import pytest

from repro.bench.setups import make_rocksdb
from repro.common import units
from repro.sim.executor import Executor, SimThread
from repro.workloads.ycsb import (
    DISTRIBUTIONS,
    WORKLOADS,
    YCSBConfig,
    YCSBDriver,
    make_key,
    make_value,
)


class TestTable1:
    """The exact mixes of the paper's Table 1."""

    def test_workload_a(self):
        assert WORKLOADS["A"] == {"read": 0.5, "update": 0.5}

    def test_workload_b(self):
        assert WORKLOADS["B"] == {"read": 0.95, "update": 0.05}

    def test_workload_c(self):
        assert WORKLOADS["C"] == {"read": 1.0}

    def test_workload_d(self):
        assert WORKLOADS["D"] == {"read": 0.95, "insert": 0.05}
        assert DISTRIBUTIONS["D"] == "latest"

    def test_workload_e(self):
        assert WORKLOADS["E"] == {"scan": 0.95, "insert": 0.05}

    def test_workload_f(self):
        assert WORKLOADS["F"] == {"read": 0.5, "rmw": 0.5}

    def test_all_mixes_sum_to_one(self):
        for name, mix in WORKLOADS.items():
            assert sum(mix.values()) == pytest.approx(1.0), name


class TestKeysValues:
    def test_key_format(self):
        key = make_key(1234)
        assert key.startswith(b"user")
        assert len(key) == 30   # the paper's 30 B keys

    def test_keys_sorted_by_index(self):
        assert make_key(1) < make_key(2) < make_key(10) < make_key(100)

    def test_value_size(self):
        assert len(make_value(7)) == 1024   # the paper's 1 KB values
        assert len(make_value(7, size=100)) == 100

    def test_values_deterministic_distinct(self):
        assert make_value(1) == make_value(1)
        assert make_value(1) != make_value(2)


class TestConfig:
    def test_defaults(self):
        config = YCSBConfig(workload="C")
        assert config.distribution == "zipfian"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            YCSBConfig(workload="Z")
        with pytest.raises(ValueError):
            YCSBConfig(workload="A", distribution="gaussian")


def _driver(workload, ops=300, records=300):
    db, _ = make_rocksdb(
        "direct",
        cache_pages=256,
        capacity_bytes=256 * units.MIB,
        memtable_bytes=32 * units.KIB,
        sst_bytes=32 * units.KIB,
    )
    config = YCSBConfig(
        workload=workload,
        record_count=records,
        operation_count=ops,
        value_bytes=64,
    )
    driver = YCSBDriver(db, config)
    loader = SimThread(core=0, tid=0)
    driver.load(loader)
    db.flush(loader)
    return driver, db


class TestDriver:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_mix_roughly_respected(self, workload):
        driver, _ = _driver(workload, ops=400)
        thread = SimThread(core=0, tid=0)
        executor = Executor()
        executor.add(thread, driver.run_workload(thread, 400))
        executor.run()
        stats = driver.stats
        assert stats.operations == 400
        mix = WORKLOADS[workload]
        observed = {
            "read": stats.reads,
            "update": stats.updates,
            "insert": stats.inserts,
            "scan": stats.scans,
            "rmw": stats.rmws,
        }
        for op, weight in mix.items():
            share = observed[op] / 400
            assert abs(share - weight) < 0.08, f"{workload}:{op}"
        for op, count in observed.items():
            if op not in mix:
                assert count == 0

    def test_no_not_found_on_loaded_data(self):
        driver, _ = _driver("C", ops=200)
        thread = SimThread(core=0, tid=0)
        executor = Executor()
        executor.add(thread, driver.run_workload(thread, 200))
        executor.run()
        assert driver.stats.not_found == 0

    def test_inserts_extend_keyspace(self):
        driver, db = _driver("D", ops=300, records=100)
        thread = SimThread(core=0, tid=0)
        executor = Executor()
        executor.add(thread, driver.run_workload(thread, 300))
        executor.run()
        assert driver.stats.inserts > 0
        # New records are readable.
        new_key = make_key(100)   # first inserted index
        assert db.get(thread, new_key) is not None

    def test_scans_return_items(self):
        driver, _ = _driver("E", ops=100)
        thread = SimThread(core=0, tid=0)
        executor = Executor()
        executor.add(thread, driver.run_workload(thread, 100))
        executor.run()
        assert driver.stats.scans > 0
        assert driver.stats.scan_items > driver.stats.scans

    def test_latencies_recorded_per_op(self):
        driver, _ = _driver("A", ops=150)
        thread = SimThread(core=0, tid=0)
        executor = Executor()
        executor.add(thread, driver.run_workload(thread, 150))
        result = executor.run()
        assert result.merged_latencies().count == 150
