"""Golden-number regression tier: pin each figure's headline numbers.

The simulation is fully deterministic, so every figure cell produces the
exact same number on every run of the same code.  These tests pin the
headline value of each paper figure (at fast, test-scale parameters) with
a narrow tolerance band.  A failure means a code change moved a simulated
figure — either an accidental regression (fix the code) or a deliberate
model change (re-pin the golden and say so in the PR).

Failure messages print three numbers side by side: what this run
*observed*, what the golden file *pins*, and what the *paper* reports for
the corresponding full-scale claim — so a drift is immediately legible
without re-running anything.

Scales here are test-sized (hundreds of ops), so absolute values differ
from the paper's full-scale numbers; the paper column is context, not the
assertion target.  ``benchmarks/`` holds the figure-scale claim checks.
"""

import pytest

from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

#: rel-tolerance of every golden pin.  Wide enough to survive float noise
#: (there is none — the sim is deterministic) and platform differences in
#: libm-free arithmetic (also none); narrow enough that any real cost
#: model or scheduling change trips it.
GOLDEN_RTOL = 1e-6


@pytest.fixture(autouse=True)
def _fresh_ids():
    """Golden cells must not depend on how many threads/files ran before."""
    SimThread.reset_ids()
    BackingFile.reset_ids()
    yield
    SimThread.reset_ids()
    BackingFile.reset_ids()


def check_golden(name: str, observed: float, pinned: float, paper: str,
                 rtol: float = GOLDEN_RTOL) -> None:
    """Assert ``observed`` matches the pinned golden value.

    ``paper`` is a human-readable note of the corresponding full-scale
    paper claim, printed in the failure message for context.
    """
    assert observed == pytest.approx(pinned, rel=rtol), (
        f"golden drift in {name}:\n"
        f"  observed : {observed}\n"
        f"  pinned   : {pinned}  (rel tolerance {rtol})\n"
        f"  paper    : {paper}\n"
        "If this change to the simulated figure is intentional, re-pin the "
        "golden in tests/regression/test_paper_golden.py and call it out "
        "in the PR description."
    )


class TestFig8Goldens:
    """Figure 8: page-fault cost, Linux vs Aquila (paper Section 6.4)."""

    def test_fig8a_fault_cost(self):
        from repro.bench.experiments.fig8 import in_memory_pages, run_fault_benchmark

        r = {
            engine: run_fault_benchmark(engine, *in_memory_pages(200), 200)
            for engine in ("linux", "aquila")
        }
        linux = r["linux"]["mean_access_cycles"]
        aquila = r["aquila"]["mean_access_cycles"]
        check_golden("fig8a linux fault cycles", linux, 5460.0,
                     "Linux in-memory fault = 5380 cycles (Fig 8a)")
        check_golden("fig8a aquila fault cycles", aquila, 3787.3,
                     "Aquila cuts fault latency by 45.3% (Fig 8a)")
        check_golden("fig8a linux/aquila ratio", linux / aquila,
                     5460.0 / 3787.3,
                     "paper full-scale ratio ~1.83x (5380 vs ~2943)")

    def test_fig8c_device_paths(self):
        from repro.bench.experiments.fig8 import (
            FIG8C_PATHS,
            in_memory_pages,
            run_cache_hit,
            run_fault_benchmark,
        )

        r = {
            label: run_fault_benchmark(
                "aquila", *in_memory_pages(150), 150,
                device_kind=device_kind, io_path=io_path,
            )["mean_access_cycles"]
            for label, device_kind, io_path in FIG8C_PATHS
        }
        r["Cache-Hit"] = run_cache_hit(150)
        check_golden("fig8c Cache-Hit", r["Cache-Hit"], 2179.0,
                     "Cache-Hit fault = 2179 cycles (Fig 8c, exact)")
        check_golden("fig8c DAX-pmem", r["DAX-pmem"], 3787.8333333333335,
                     "DAX-pmem is the cheapest I/O path (Fig 8c)")
        check_golden("fig8c HOST-pmem", r["HOST-pmem"], 11911.833333333334,
                     "host syscall path costs ~3x DAX on pmem (Fig 8c)")
        check_golden("fig8c SPDK-NVMe", r["SPDK-NVMe"], 27187.833333333332,
                     "SPDK beats host I/O on NVMe (Fig 8c)")
        check_golden("fig8c HOST-NVMe", r["HOST-NVMe"], 40175.833333333336,
                     "host-NVMe penalty ~1.53x over SPDK (Fig 8c)")
        # Orderings are the figure's qualitative claim; keep them explicit
        # so a re-pin can't silently invert a bar.
        assert r["Cache-Hit"] < r["DAX-pmem"] < r["HOST-pmem"]
        assert r["SPDK-NVMe"] < r["HOST-NVMe"]


class TestFig7Goldens:
    """Figure 7: RocksDB cycle breakdown, explicit I/O vs Aquila."""

    def test_fig7_ratios(self):
        from repro.bench.experiments.fig7 import run_mode
        from repro.bench.paper_claims import fig7_cache_mgmt_ratio, fig7_throughput_gain

        cells = {
            f"fig7/{mode}": run_mode(mode, record_count=4096, operations=600,
                                     cache_pages=256)
            for mode in ("direct", "aquila")
        }
        check_golden("fig7 cache-mgmt ratio", fig7_cache_mgmt_ratio(cells),
                     2.654004152059097,
                     "explicit I/O spends 2.58x Aquila's cycles on cache "
                     "management (Fig 7)")
        check_golden("fig7 throughput gain", fig7_throughput_gain(cells),
                     1.6186812719264623,
                     "mmap path gains 1.40x over pread/pwrite (Fig 7)")

    @pytest.mark.parametrize("mode", ["direct", "aquila"])
    def test_payload_does_not_depend_on_the_tracer(self, mode):
        """A caller's small span ring neither truncates nor moves a section."""
        from repro.bench.experiments.fig7 import run_mode
        from repro.obs import TRACER

        untraced = run_mode(mode, record_count=4096, operations=600, cache_pages=256)
        SimThread.reset_ids()
        BackingFile.reset_ids()
        with TRACER.isolated(enable=True, capacity=1000):
            traced = run_mode(mode, record_count=4096, operations=600, cache_pages=256)
            assert TRACER.dropped > 0   # the ring overflowed
        assert traced == untraced


class TestFig5Goldens:
    """Figure 5: RocksDB YCSB-C throughput across I/O engines."""

    def test_fig5_pmem_in_memory_cell(self):
        from repro.bench.experiments.fig5 import run_cell

        thr = {}
        for mode in ("direct", "mmap", "aquila"):
            SimThread.reset_ids()
            BackingFile.reset_ids()
            thr[mode] = run_cell(mode, "pmem", 2048, 666, 4, 200)["throughput"]
        check_golden("fig5a direct ops/s", thr["direct"], 308388.9504239063,
                     "pread/pwrite baseline (Fig 5a pmem)")
        check_golden("fig5a mmap ops/s", thr["mmap"], 357175.478638395,
                     "Linux mmap beats explicit I/O in-memory (Fig 5a)")
        check_golden("fig5a aquila ops/s", thr["aquila"], 521655.3537190087,
                     "Aquila leads both engines (Fig 5a pmem)")
        assert thr["aquila"] > thr["mmap"] > thr["direct"]


class TestFig9Goldens:
    """Figure 9: Kreon over kmmap vs over Aquila."""

    def test_fig9_ycsb_c_pmem(self):
        from repro.bench.experiments.fig9 import run_cell

        kmmap = run_cell("kmmap", "pmem", "C", record_count=2048,
                         cache_pages=512, operations=600)
        SimThread.reset_ids()
        BackingFile.reset_ids()
        aquila = run_cell("aquila", "pmem", "C", record_count=2048,
                          cache_pages=512, operations=600)
        ratio = aquila["throughput"] / kmmap["throughput"]
        check_golden("fig9 C/pmem throughput ratio", ratio,
                     1.0327828558100323,
                     "paper pmem mean throughput ratio 1.22x (Fig 9)")
        assert aquila["not_found"] == kmmap["not_found"] == 0


class TestFig10Goldens:
    """Figure 10: scalability, Aquila vs Linux mmap (the tentpole cell)."""

    @staticmethod
    def _speedup(shared, in_memory, cache_pages, total_accesses):
        from repro.bench.experiments.fig10 import run_cell

        SimThread.reset_ids()
        BackingFile.reset_ids()
        linux, _, _ = run_cell("linux", 16, shared, in_memory,
                               cache_pages=cache_pages,
                               total_accesses=total_accesses)
        SimThread.reset_ids()
        BackingFile.reset_ids()
        aquila, _, _ = run_cell("aquila", 16, shared, in_memory,
                                cache_pages=cache_pages,
                                total_accesses=total_accesses)
        return linux["throughput"], aquila["throughput"]

    def test_fig10a_shared_16_threads(self):
        linux, aquila = self._speedup(True, True, 2048, 40960)
        check_golden("fig10a shared linux ops/s", linux, 65803953.699464224,
                     "Linux serializes on the per-inode tree lock (Sec 6.5)")
        check_golden("fig10a shared aquila ops/s", aquila, 192438248.0414381,
                     "Aquila's lock-free hash keeps scaling (Sec 6.5)")
        check_golden("fig10a shared speedup @16t", aquila / linux,
                     2.9244177169099936,
                     "paper in-memory shared-file speedup reaches 8.37x @32t")

    def test_fig10a_private_16_threads(self):
        linux, aquila = self._speedup(False, True, 2048, 40960)
        check_golden("fig10a private speedup @16t", aquila / linux,
                     1.58399470107774,
                     "private files avoid the lock collapse: paper 1.99x @32t")

    def test_fig10b_shared_16_threads(self):
        linux, aquila = self._speedup(True, False, 512, 8192)
        check_golden("fig10b shared speedup @16t", aquila / linux,
                     7.386646376883854,
                     "paper out-of-memory shared-file speedup 12.92x @32t")
