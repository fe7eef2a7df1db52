from repro.bench.paper_claims import fig10_speedup
from repro.bench.report import Table, print_claims, ratio_line

THREADS = [1, 2, 4, 8, 16, 32]


def _throughputs(cells, variant, sharing, engine):
    return [
        cells[f"fig10{variant}/{sharing}/{engine}/t{threads}"]["throughput"]
        for threads in THREADS
    ]


def _show(cells, variant, sharing, title):
    table = Table(title, ["threads", "linux ops/s", "aquila ops/s", "speedup"])
    linux = _throughputs(cells, variant, sharing, "linux")
    aquila = _throughputs(cells, variant, sharing, "aquila")
    for index, threads in enumerate(THREADS):
        table.add_row(
            threads,
            linux[index],
            aquila[index],
            fig10_speedup(cells, variant, sharing, threads),
        )
    table.show()


def test_fig10a_in_memory(figure):
    """Dataset fits in memory: shared-file speedup grows with threads."""
    cells = figure("fig10a", threads=THREADS)
    _show(cells, "a", "shared", "Figure 10(a): in-memory dataset, one shared file")
    _show(cells, "a", "private", "Figure 10(a): in-memory dataset, private file per thread")

    shared_1 = fig10_speedup(cells, "a", "shared", 1)
    shared_32 = fig10_speedup(cells, "a", "shared", 32)
    private_32 = fig10_speedup(cells, "a", "private", 32)
    print_claims(
        "Figure 10(a) paper-vs-measured",
        [
            ratio_line("shared-file speedup @1t", 1.81, shared_1),
            ratio_line("shared-file speedup @32t", 8.37, shared_32),
            ratio_line("private-file speedup @32t", 1.99, private_32),
        ],
    )

    assert shared_1 > 1.2, "Aquila must win even at one thread"
    assert shared_32 > 2.5 * shared_1, "shared-file gap must widen with threads"
    assert private_32 < shared_32, "private files avoid the shared-lock collapse"
    # Linux shared-file throughput must plateau (tree-lock serialization).
    linux_shared = _throughputs(cells, "a", "shared", "linux")
    assert linux_shared[-1] < 3 * linux_shared[2], "Linux must stop scaling"
    # Aquila keeps scaling well past Linux's plateau.
    aquila_shared = _throughputs(cells, "a", "shared", "aquila")
    assert aquila_shared[-1] > 6 * aquila_shared[0]


def test_fig10b_out_of_memory(figure):
    """Dataset 12.5x the cache: evictions amplify the gap (up to ~12.9x)."""
    cells = figure("fig10b", threads=THREADS)
    _show(cells, "b", "shared", "Figure 10(b): out-of-memory dataset, one shared file")
    _show(cells, "b", "private", "Figure 10(b): out-of-memory dataset, private file per thread")

    shared_1 = fig10_speedup(cells, "b", "shared", 1)
    shared_32 = fig10_speedup(cells, "b", "shared", 32)
    private_32 = fig10_speedup(cells, "b", "private", 32)
    print_claims(
        "Figure 10(b) paper-vs-measured",
        [
            ratio_line("shared-file speedup @1t", 2.17, shared_1),
            ratio_line("shared-file speedup @32t", 12.92, shared_32),
            ratio_line("private-file speedup @32t", 2.84, private_32),
        ],
    )

    assert shared_1 > 1.3
    assert shared_32 > 8.0, "out-of-memory shared-file gap should reach ~13x"
    assert shared_32 > private_32


def test_fig10_writes_behave_like_reads(once):
    """Section 6.5: "We see similar behaviour in writes compared to reads."

    The paper omits write plots for this reason; we verify it: a write
    microbenchmark shows the same shared-file speedup ordering, with the
    dirty-marking path (tree lock on Linux, per-core RB-trees on Aquila)
    standing in for the read path's lookup contention.
    """

    def run():
        rows = []
        for threads in (1, 16):
            linux = _write_cell("linux", threads)
            aquila = _write_cell("aquila", threads)
            rows.append((threads, linux, aquila, aquila / max(linux, 1e-9)))
        return rows

    def _write_cell(kind, threads):
        from repro.bench.setups import make_aquila_stack, make_linux_stack
        from repro.common import units
        from repro.workloads.microbench import MicrobenchConfig, run_microbench

        maker = make_linux_stack if kind == "linux" else make_aquila_stack
        stack = maker("pmem", 1024)
        file = stack.allocator.create("w", 1024 * units.PAGE_SIZE)
        config = MicrobenchConfig(
            num_threads=threads,
            accesses_per_thread=max(8, 2048 // threads),
            touch_once=True,
            write_fraction=1.0,
        )
        return run_microbench(stack.engine, file, config).throughput_ops_per_sec()

    rows = once(run)
    table = Table(
        "Figure 10 write variant: 100% stores, in-memory, shared file",
        ["threads", "linux ops/s", "aquila ops/s", "speedup"],
    )
    for threads, linux, aquila, speedup in rows:
        table.add_row(threads, linux, aquila, speedup)
    table.show()

    by_threads = {threads: speedup for threads, _, _, speedup in rows}
    assert by_threads[1] > 1.1, "Aquila wins single-threaded writes too"
    assert by_threads[16] > by_threads[1], "write gap widens with threads"


def test_fig10_tail_latency(figure):
    """Section 6.5 latency claims: Aquila's tails are far lower under load."""
    cells = figure("fig10b", threads=[32])
    shared = {engine: cells[f"fig10b/shared/{engine}/t32"] for engine in ("linux", "aquila")}
    p99_ratio = shared["linux"]["p99_cycles"] / max(1.0, shared["aquila"]["p99_cycles"])
    p999_ratio = shared["linux"]["p999_cycles"] / max(1.0, shared["aquila"]["p999_cycles"])
    mean_ratio = shared["linux"]["mean_latency_cycles"] / max(
        1.0, shared["aquila"]["mean_latency_cycles"]
    )
    print_claims(
        "Figure 10(b) tail latency @32t shared (paper: avg 8.52x, p99 177x, p99.9 213x)",
        [
            ratio_line("average latency", 8.52, mean_ratio),
            ratio_line("p99 latency", 177.0, p99_ratio),
            ratio_line("p99.9 latency", 213.0, p999_ratio),
        ],
    )
    # Known deviation (EXPERIMENTS.md): the simulator reproduces the mean
    # gap but underestimates Linux's extreme tails — the paper's 177x p99
    # comes from epochal reclaim/writeback storms that this model smooths
    # into steady per-fault costs.
    assert mean_ratio > 3.0
    assert p99_ratio > 1.1, "Aquila's tails must still beat Linux's"
