"""Paper-calibrated cost constants (all values in CPU cycles at 2.4 GHz).

Every constant cites the paper section that justifies it.  Keeping the whole
cost model in one auditable module is a deliberate design decision
(DESIGN.md Section 4, item 3): the simulation's fidelity rests on these
numbers, so they must be easy to review against the paper.

"Paper" below refers to Papagiannis et al., *Memory-Mapped I/O on Steroids*,
EuroSys '21.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Protection-domain transitions (paper Sections 4.4 and 6.4, Figure 8(a))
# ---------------------------------------------------------------------------

#: Ring 3 -> ring 0 trap cost for a Linux page fault, excluding the handler
#: itself.  Paper Section 6.4: "We measure the protection domain switch cost
#: (excluding the handler itself) to be 1287 cycles (536ns)."
TRAP_RING3_CYCLES = 1287

#: Exception delivery cost in VMX non-root ring 0 (Aquila).  Paper
#: Section 6.4: "the trap cost in non-root ring 0 (Aquila) is 552 cycles
#: (230ns), which is 2.33x lower compared to exceptions from ring 3."
TRAP_AQUILA_CYCLES = 552

#: A vmexit/vmentry round trip.  Paper Section 4.4 (citing Dune): "a vmexit
#: adds about 750 cycles (250 ns)".
VMEXIT_CYCLES = 750

#: A vmcall-based hypercall (guest -> hypervisor syscall redirection) is a
#: vmexit plus hypervisor dispatch; Dune reports it costs somewhat more than
#: a native syscall.  We model dispatch at the same cost as the kernel's
#: syscall entry work on top of the vmexit.
VMCALL_CYCLES = VMEXIT_CYCLES + 250

#: Native syscall entry/exit (mode switch + kernel dispatch), the classic
#: ~150-300 cycle SYSCALL/SYSRET pair plus entry bookkeeping on the paper's
#: Haswell testbed.
SYSCALL_CYCLES = 300

#: Aquila msync: merging the per-core dirty red-black trees into one
#: device-offset-sorted flush set before any PTE downgrade (a tree walk
#: plus sort setup).  Also the charge that keeps the msync path's first
#: cross-thread-visible mutation behind the batching-invariant preamble
#: (see ``repro.sim.executor``).
AQUILA_MSYNC_SCAN_CYCLES = 220

# ---------------------------------------------------------------------------
# Page-fault handler work (paper Figure 8(a) and Section 6.4)
# ---------------------------------------------------------------------------

#: Total Linux page fault on a memory-mapped file with a pmem device and an
#: in-memory dataset: "about 5380 cycles in total" of which 49% is device
#: I/O and 24% is the trap (Figure 8(a)).  Excluding device I/O the fault
#: costs 2724 cycles; excluding also the 1287-cycle trap, the remaining
#: kernel handler work (VMA lookup, page-cache lookup, PTE install,
#: accounting) is 1437 cycles.
LINUX_FAULT_TOTAL_PMEM_CYCLES = 5380
LINUX_FAULT_NO_IO_CYCLES = 2724
LINUX_FAULT_HANDLER_WORK_CYCLES = LINUX_FAULT_NO_IO_CYCLES - TRAP_RING3_CYCLES

#: Aquila cache-hit fault path total: "Cache-Hit is the case where no I/O is
#: required and the total cost in this case is 2179 cycles" (Figure 8(c)).
#: Subtracting the 552-cycle exception leaves 1627 cycles of handler work
#: (lock-free hash lookup, radix-tree validity check, PTE install).
AQUILA_FAULT_TOTAL_HIT_CYCLES = 2179
AQUILA_FAULT_HANDLER_WORK_CYCLES = AQUILA_FAULT_TOTAL_HIT_CYCLES - TRAP_AQUILA_CYCLES

#: Component costs inside the Aquila handler (sum = 1627).  The split is our
#: decomposition, constrained by Figure 8(b)'s observation that no single
#: Aquila component exceeds 10% of the eviction-path total (~11 K cycles).
AQUILA_VMA_LOOKUP_CYCLES = 280        # radix-tree validity check + entry lock
AQUILA_CACHE_LOOKUP_CYCLES = 350      # lock-free hash table probe
AQUILA_PTE_INSTALL_CYCLES = 400       # GVA->GPA PTE write + accounting
AQUILA_LRU_UPDATE_CYCLES = 250        # approximate-LRU bookkeeping
AQUILA_FAULT_MISC_CYCLES = (
    AQUILA_FAULT_HANDLER_WORK_CYCLES
    - AQUILA_VMA_LOOKUP_CYCLES
    - AQUILA_CACHE_LOOKUP_CYCLES
    - AQUILA_PTE_INSTALL_CYCLES
    - AQUILA_LRU_UPDATE_CYCLES
)

#: Linux handler component costs.  Linux takes the mmap_sem read lock
#: (one atomic RMW on the lock word, ~100 cycles, modeled by the RW-lock
#: timeline), walks the VMA red-black tree, looks up / inserts into the
#: page-cache radix tree under the single tree lock, allocates a page,
#: installs the PTE and updates LRU lists.  The components below plus the
#: 100-cycle lock-word atomic sum to LINUX_FAULT_HANDLER_WORK_CYCLES
#: (1437), so an uncontended fault costs the paper's 2724 cycles without
#: I/O and ~5360 with a 4 KB pmem read (Figure 8(a): 5380).  Lock
#: *contention* is added on top by the timelines.
LINUX_VMA_LOOKUP_CYCLES = 250         # VMA rb-tree walk under mmap_sem
LINUX_PCACHE_LOOKUP_CYCLES = 250      # tree_lock + radix lookup
LINUX_PCACHE_INSERT_CYCLES = 220      # tree_lock + radix insert
LINUX_PAGE_ALLOC_CYCLES = 150         # buddy/per-cpu page allocation
LINUX_PTE_INSTALL_CYCLES = 350
LINUX_LRU_UPDATE_CYCLES = 117

# ---------------------------------------------------------------------------
# Memory copies and FPU state (paper Section 3.3)
# ---------------------------------------------------------------------------

#: "we measure the cost of a 4KB memcpy, without using SIMD instructions to
#: be about 2400 cycles" (Section 3.3).  This is what the Linux kernel pays.
MEMCPY_4K_NOSIMD_CYCLES = 2400

#: "an optimized memcpy of 4KB using AVX2 streaming ... requires about 900
#: cycles" (Section 3.3).
MEMCPY_4K_AVX2_CYCLES = 900

#: "We measure the cost to save and restore AVX state using the XSAVEOPT and
#: FXRSTOR instructions to be around 300 cycles" (Section 3.3).
FPU_SAVE_RESTORE_CYCLES = 300

#: Aquila's DAX read path: AVX2 streaming copy + FPU save/restore = 1200
#: cycles, "2x faster than non-SIMD memcpy" (Section 3.3).
MEMCPY_4K_AQUILA_DAX_CYCLES = MEMCPY_4K_AVX2_CYCLES + FPU_SAVE_RESTORE_CYCLES

# ---------------------------------------------------------------------------
# TLB and IPIs (paper Section 4.1, citing Shinjuku)
# ---------------------------------------------------------------------------

#: Local TLB invalidation of a single page (INVLPG plus bookkeeping).
TLB_INVALIDATE_LOCAL_CYCLES = 120

#: Full local TLB flush (CR3 reload class cost).
TLB_FLUSH_LOCAL_CYCLES = 400

#: Posted-IPI send without a vmexit: "298 cycles" (Section 4.1).
IPI_SEND_VMEXITLESS_CYCLES = 298

#: Posted-IPI send with a vmexit in the send path (Aquila's DoS-safe choice):
#: "increasing the cost from 298 to 2081 cycles" (Section 4.1).
IPI_SEND_VMEXIT_CYCLES = 2081

#: Receive-side cost of a posted interrupt (vmexit-less receive path).
IPI_RECEIVE_CYCLES = 300

#: Cost for the Linux kernel to send a TLB-shootdown IPI (native IPI via
#: APIC write + remote interrupt handling; see Amit, ATC'17).
IPI_SEND_LINUX_CYCLES = 1200
IPI_RECEIVE_LINUX_CYCLES = 800

#: Aquila removes mappings for batches of pages and sends a single
#: invalidation: "multiple pages (512 in our evaluation)" (Section 4.1).
TLB_SHOOTDOWN_BATCH = 512

#: TLB refill cost for a miss caused by invalidations: a 4-level page walk.
TLB_MISS_WALK_CYCLES = 100

# ---------------------------------------------------------------------------
# DRAM cache management (paper Section 3.2)
# ---------------------------------------------------------------------------

#: Synchronous eviction batch: "Aquila tries to evict a batch of pages (512)
#: synchronously" (Section 3.2).
EVICTION_BATCH_PAGES = 512

#: Freelist batch move between per-core and per-NUMA queues: "performed in
#: batches (4096 pages in our evaluation)" (Section 3.2).
FREELIST_MOVE_BATCH_PAGES = 4096

#: Per-core freelist threshold before spilling to the NUMA queue.
FREELIST_CORE_THRESHOLD_PAGES = 8192

#: Cost of a lock-free queue push/pop (CAS + cache-line transfer).
FREELIST_OP_CYCLES = 60

#: Cost per page of moving between freelist levels (amortized by batching).
FREELIST_BATCH_MOVE_PER_PAGE_CYCLES = 15

#: Red-black tree insert/remove for dirty-page tracking (per-core trees).
RBTREE_OP_CYCLES = 180

#: Lock-free hash table insert/remove (David et al., ASPLOS'15 style).
HASHTABLE_INSERT_CYCLES = 220
HASHTABLE_REMOVE_CYCLES = 200

#: Selecting one victim page from the approximate LRU.
LRU_VICTIM_SELECT_CYCLES = 90

# ---------------------------------------------------------------------------
# Linux kernel page cache behaviour (paper Sections 6.1 and 6.5)
# ---------------------------------------------------------------------------

#: "mmap prefetches 128KB for 1KB reads" (Section 6.1): Linux default
#: readahead window of 32 pages around a faulting address.
LINUX_READAHEAD_BYTES = 128 * 1024
LINUX_READAHEAD_PAGES = 32

#: The single lock protecting the Linux page-cache radix tree (Section 6.5:
#: "a single lock protects the radix tree of cached pages, and, as a result,
#: is highly contended").  Hold time per critical section.
LINUX_TREE_LOCK_HOLD_CYCLES = 350

#: Cache-line transfer cost added per waiter when a contended lock bounces
#: between cores (used by the lock timeline model).
LOCK_TRANSFER_CYCLES = 100

#: Linux kswapd/direct-reclaim work per evicted page (LRU scan, unmap, TLB
#: flush amortization, writeback queuing).
LINUX_RECLAIM_PER_PAGE_CYCLES = 1500

#: Linux writeback batching for dirty page-cache pages.
LINUX_WRITEBACK_BATCH_PAGES = 256

# ---------------------------------------------------------------------------
# Explicit I/O with a user-space cache (paper Figure 7)
# ---------------------------------------------------------------------------

#: "System calls cost around 13K cycles" per RocksDB miss (Figure 7 text):
#: a pread on a direct-I/O file descriptor, excluding device time.  This is
#: kernel block-layer + VFS + context work, charged per miss.
USERCACHE_SYSCALL_MISS_CYCLES = 13_000

#: "user-space lookups and evictions around 32K cycles" per operation
#: (Figure 7 text): sharded LRU lookup, pin/unpin, eviction on misses.  The
#: paper charges this per RocksDB read averaged over the YCSB-C run; we
#: split it into a per-lookup and a per-eviction share (evictions happen on
#: misses only) calibrated so the average over the Figure 7 workload (~75%
#: hit rate at 8 GB cache / 32 GB data with hot SST index blocks) matches.
USERCACHE_LOOKUP_CYCLES = 9_000       # hash + shard lock + LRU touch, per get
USERCACHE_EVICT_CYCLES = 14_000       # victim selection + unpin + free, per miss
USERCACHE_INSERT_CYCLES = 9_000       # allocation + insert, per miss

#: Device I/O time RocksDB observes per read with direct I/O on pmem:
#: "Device I/O is the lowest cost at about 4.8K cycles" (Figure 7).  The
#: 4.8K = kernel 4K-copy (2400 no-SIMD) + block-layer submission/completion.
HOST_BLOCK_LAYER_CYCLES = 2400

#: Aquila device I/O per 4K read on pmem: "RocksDB with Aquila requires 3.9K
#: cycles for I/O" (Figure 7) = 1200 (AVX2+FPU copy) + blob/offset
#: translation + DAX window management.
AQUILA_DAX_IO_OVERHEAD_CYCLES = 2700  # 3900 total - 1200 copy

# ---------------------------------------------------------------------------
# Host I/O path overheads (paper Figure 8(c))
# ---------------------------------------------------------------------------

#: VFS + direct-I/O submission work for a pread/pwrite on an O_DIRECT file
#: (get_user_pages, dio allocation, bio mapping), excluding the device.
#: Calibrated so HOST-pmem I/O (vmcall + this + kernel 4K copy + bio) is
#: 7.77x the Aquila DAX path's 1200 cycles, matching Figure 8(c):
#: 1000 + 5688 + 2400 + 236 = 9324 = 7.77 * 1200.
HOST_DIRECT_IO_SETUP_CYCLES = 5688

#: Interrupt-driven NVMe completion overhead in the kernel (IRQ entry,
#: completion processing, wakeup of the blocked task, context switch back).
#: Calibrated so HOST-NVMe is 1.53x SPDK-NVMe (Figure 8(c)):
#: SPDK ~24.6K, HOST = 1000 + 5688 + 24000 + 6900 = 37.6K.
HOST_NVME_COMPLETION_CYCLES = 6900

#: SPDK polled-mode submission (queue-pair doorbell write, no syscall).
SPDK_SUBMIT_CYCLES = 300
#: SPDK completion processing once the command finishes (poll hit).
SPDK_COMPLETION_CYCLES = 300

# ---------------------------------------------------------------------------
# Key-value store CPU costs (paper Figure 7)
# ---------------------------------------------------------------------------

#: "RocksDB get incurs a cost of about 15.3K cycles" excluding cache and
#: I/O (Figure 7): memtable probe, index/filter checks, binary search in a
#: data block, key comparison, value copy out.
ROCKSDB_GET_CPU_CYCLES = 15_300

#: "RocksDB get now requires 18.5K cycles ... because of increased TLB
#: misses, as Aquila modifies memory mappings and flushes the TLBs more
#: frequently" (Figure 7).
ROCKSDB_GET_CPU_AQUILA_CYCLES = 18_500

#: "user-space data processing in RocksDB of about 11.8K cycles"
#: (Figure 7): block handling RocksDB performs per read when data comes
#: from mapped memory instead of its own block cache (checksum + block
#: re-parse on every access).  The paper counts this under cache
#: management in mmio modes.
ROCKSDB_MMIO_PROCESSING_CYCLES = 11_800

#: RocksDB put path CPU (WAL append + memtable insert), not broken out in
#: the paper (writes are excluded from its read analysis).
ROCKSDB_PUT_CPU_CYCLES = 6_000

#: Kreon get/put CPU: Kreon's design goal is fewer CPU cycles in the common
#: path than RocksDB ("reduces I/O amplification and CPU cycles", Section 5),
#: consistent with the Kreon paper's ~2x CPU reduction for gets.
KREON_GET_CPU_CYCLES = 7_500
KREON_PUT_CPU_CYCLES = 3_500
KREON_SCAN_NEXT_CPU_CYCLES = 1_200

# ---------------------------------------------------------------------------
# Graph-processing CPU costs (Ligra BFS, paper Section 6.2)
# ---------------------------------------------------------------------------

#: CPU work per edge traversed by BFS (frontier check + CAS on parent +
#: dense/sparse bookkeeping), calibrated so a 16-thread in-memory BFS of the
#: paper's 18 GB R-MAT graph takes ~2.4 s (Figure 6(a) DRAM-only bar).
LIGRA_EDGE_CPU_CYCLES = 55
LIGRA_VERTEX_CPU_CYCLES = 40

# ---------------------------------------------------------------------------
# Microbenchmark (paper Section 5)
# ---------------------------------------------------------------------------

#: The microbenchmark issues load/store instructions at random offsets; the
#: instruction itself is a handful of cycles on a hit.
LOAD_STORE_HIT_CYCLES = 6
