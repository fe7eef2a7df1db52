"""Pinned cells stay in step with the live sweep; seed draws stay in strata."""

import os
import re

import pytest

from workloads import WORKLOADS, draw, load_pins

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PINS = load_pins()
PINNED_IDS = list(PINS)


def test_pinned_configs_match_the_live_grid():
    from repro.bench.sweep import enumerate_cells

    live = {cell["cell_id"]: cell for cell in enumerate_cells(scale="figure")}
    assert sorted(live) == sorted(PINS), "figure grid changed; re-run pin.py"
    for cell_id, pin in PINS.items():
        assert pin["config_digest"] == live[cell_id]["config_digest"], cell_id
        assert pin["params"] == live[cell_id]["params"], cell_id


def test_pinned_state_digests_match_the_manifest():
    from repro.bench.sweep import index_manifest, load_manifest

    index = index_manifest(load_manifest(os.path.join(ROOT, "benchmarks", "MANIFEST_sweep.jsonl")))
    for cell_id, pin in PINS.items():
        assert pin["state_digest"] == index[cell_id]["state_digest"], cell_id


def test_seed_zero_is_the_named_slice():
    assert draw("oom-fault", 0, PINNED_IDS) == [
        "fig10b/shared/linux/t1",
        "fig10b/shared/aquila/t16",
    ]
    inmem = draw("inmem-retire", 0, PINNED_IDS)
    assert len(inmem) == 24
    assert sorted(c for c in inmem if c.startswith("fig10a")) == sorted(
        f"fig10a/{s}/{e}/t{t}"
        for s in ("shared", "private") for e in ("linux", "aquila") for t in (1, 16, 32)
    )
    assert sorted(c for c in inmem if c.startswith("serve")) == sorted(
        f"serve/{e}/{p}/a6" for e in ("aquila", "kmmap", "linux") for p in ("none", "proportional")
    )
    assert sorted(c for c in inmem if c.startswith("cluster")) == sorted(
        f"cluster/{e}/{s}" for e in ("aquila", "kmmap", "linux") for s in ("s4", "s4-failover")
    )
    assert sorted(draw("kv-ycsb", 0, PINNED_IDS)) == sorted(
        [f"fig9/pmem/{w}/{e}" for w in "AEF" for e in ("kmmap", "aquila")]
        + [f"fig5b/pmem/t4/{m}" for m in ("direct", "mmap", "aquila")]
    )
    assert sorted(draw("graph-bfs", 0, PINNED_IDS)) == sorted(
        ["fig6a/linux-pmem/t1", "fig6a/linux-pmem/t16", "fig6a/aquila-pmem/t1",
         "fig6a/aquila-pmem/t16", "fig6a/aquila-nvme/t8", "fig6a/dram/t8"]
    )


def _family_engine(cell_id):
    family, *rest = cell_id.split("/")
    engines = ("linux", "aquila", "kmmap", "dram", "direct", "mmap")
    return family, [e for e in engines if any(part.startswith(e) for part in rest)][0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_strata_are_pinned_and_inside_one_family_and_engine(workload):
    for pattern, slice_ids in WORKLOADS[workload]:
        members = [c for c in PINNED_IDS if re.fullmatch(pattern, c)]
        assert set(slice_ids) <= set(members), pattern
        assert len({_family_engine(c) for c in members}) == 1, pattern


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_draws_are_deterministic_and_stay_in_strata(workload):
    strata = WORKLOADS[workload]
    seen = set()
    for seed in range(1, 40):
        ids = draw(workload, seed, PINNED_IDS)
        assert ids == draw(workload, seed, PINNED_IDS)
        assert len(ids) == len(set(ids)) == sum(len(s) for _, s in strata)
        for pattern, slice_ids in strata:
            assert sum(1 for c in ids if re.fullmatch(pattern, c)) == len(slice_ids)
        seen.add(tuple(ids))
    assert len(seen) > 1, "every seed drew the same cells"


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        draw("no-such-workload", 0, PINNED_IDS)
