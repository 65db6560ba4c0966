"""Static partition-specification features (Table II "Par Total *" rows).

The paper includes cluster specifications (total nodes/CPUs/GPUs, CPUs and
memory per node for the job's partition) so the model generalises across
reconfiguration: "these statistics can be easily modified without changing
the overall architecture".
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.rows import check_rows
from repro.slurm.resources import Cluster

__all__ = ["static_partition_features", "STATIC_KEYS"]

STATIC_KEYS: tuple[str, ...] = (
    "par_total_nodes",
    "par_total_cpu",
    "par_cpu_per_node",
    "par_mem_per_node",
    "par_total_gpu",
)

_SPEC_TO_KEY = {
    "total_nodes": "par_total_nodes",
    "total_cpus": "par_total_cpu",
    "cpus_per_node": "par_cpu_per_node",
    "mem_per_node_gb": "par_mem_per_node",
    "total_gpus": "par_total_gpu",
}


def static_partition_features(
    jobs: JobSet, cluster: Cluster, rows: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Broadcast each job's partition specs into per-job columns, aligned
    with ``rows`` (all jobs by default)."""
    specs = cluster.partition_specs()
    p = jobs.records["partition"].astype(np.intp)
    if len(p) and (p.min() < 0 or p.max() >= len(cluster.partitions)):
        raise ValueError("trace references partitions outside the cluster")
    p = p[check_rows(rows, len(p))]
    return {key: specs[spec][p] for spec, key in _SPEC_TO_KEY.items()}
