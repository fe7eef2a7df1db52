"""Cluster figure: sharded-simulation scaling and failover (beyond paper).

A figure family the paper does not contain, motivated by its serving
scenario: one logical workload sharded across N machines
(:mod:`repro.cluster`), each machine a full engine/cache/device stack,
with epoch-boundary replication over the deterministic message bus.  The
grid crosses engine (aquila / kmmap / linux) with shard count (1 / 2 /
4) at a fixed logical dataset and op count — every shard count serves
the *same* pages and ops, just spread over more machines — plus one
seeded mid-epoch primary-kill cell per engine at 4 shards, so the
family shows both scale-out throughput and the failover
data-loss/re-route accounting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster import ClusterConfig, run_cluster
from repro.fault.shardkill import ShardKillSpec, derive_shard_kill

ENGINE_KINDS = ("aquila", "kmmap", "linux")

SHARD_COUNTS = (1, 2, 4)

#: Seed of the whole family (client plan, ring, kill derivation).
CLUSTER_SEED = 73


def _scale_params(scale: str) -> Dict:
    """The op-count knobs for figure vs bench scale."""
    if scale == "figure":
        return {"total_ops": 8192, "epoch_ops": 1024, "dataset_pages": 192}
    return {"total_ops": 1536, "epoch_ops": 512, "dataset_pages": 96}


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every cluster cell as an independent sweep work unit.

    Grid: engine x shard count, plus a ``s4-failover`` cell per engine
    whose kill spec is derived from the family seed — its parameters are
    spelled into ``params`` so the cell stays content-addressed.
    """
    knobs = _scale_params(scale)
    cells = []
    for engine_kind in ENGINE_KINDS:
        for shards in SHARD_COUNTS:
            cells.append(
                {
                    "cell_id": f"cluster/{engine_kind}/s{shards}",
                    "figure": "cluster",
                    "params": {
                        "engine_kind": engine_kind,
                        "num_shards": shards,
                        "replication": min(2, shards),
                        "cache_pages": 512,
                        "write_fraction": 0.25,
                        "seed": CLUSTER_SEED,
                        **knobs,
                    },
                }
            )
        kill = derive_shard_kill(
            CLUSTER_SEED, 4, knobs["total_ops"] // knobs["epoch_ops"], knobs["epoch_ops"]
        )
        cells.append(
            {
                "cell_id": f"cluster/{engine_kind}/s4-failover",
                "figure": "cluster",
                "params": {
                    "engine_kind": engine_kind,
                    "num_shards": 4,
                    "replication": 2,
                    "cache_pages": 512,
                    "write_fraction": 0.25,
                    "seed": CLUSTER_SEED,
                    "kill_shard": kill.shard_id,
                    "kill_epoch": kill.epoch,
                    "kill_op": kill.op_index,
                    **knobs,
                },
            }
        )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated cluster cell; returns payload + merged digest.

    The state digest is the cluster's merged full-state structure (every
    shard's engine digest plus bus and router state), so serial and
    multi-worker sweeps — and all three executor modes — compare bit
    for bit.
    """
    kill = None
    if "kill_shard" in params:
        kill = ShardKillSpec(
            shard_id=params["kill_shard"],
            epoch=params["kill_epoch"],
            op_index=params["kill_op"],
        )
    result = run_cluster(
        ClusterConfig(
            num_shards=params["num_shards"],
            replication=params["replication"],
            engine_kind=params["engine_kind"],
            cache_pages=params["cache_pages"],
            dataset_pages=params["dataset_pages"],
            total_ops=params["total_ops"],
            epoch_ops=params["epoch_ops"],
            write_fraction=params["write_fraction"],
            seed=params["seed"],
            kill=kill,
        )
    )
    payload = result.payload()
    payload["shard_rows"] = [
        result.shard_summaries[sid] for sid in sorted(result.shard_summaries)
    ]
    return {"payload": payload, "state": result.merged_digest()}
