"""Cluster resource model.

Resources are tracked at *pool* granularity: a :class:`NodePool` is a set of
identical nodes whose aggregate CPUs / memory / GPUs are consumed by running
jobs.  Partitions reference a pool — several partitions may share one pool
(on Anvil the CPU partitions share nodes while the GPU partition is
isolated), which reproduces the cross-partition contention the paper's
per-partition features have to see through.

Aggregate (rather than per-node) accounting keeps the simulator fully
vectorisable; node-exclusive partitions still behave correctly because
their jobs request whole-node multiples of CPUs and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NodePool", "Partition", "Cluster"]


@dataclass
class NodePool:
    """A homogeneous set of nodes sharing one free-resource ledger."""

    name: str
    n_nodes: int
    cpus_per_node: int
    mem_gb_per_node: float
    gpus_per_node: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.cpus_per_node <= 0:
            raise ValueError(f"pool {self.name!r} must have positive nodes/cpus")
        if self.mem_gb_per_node <= 0:
            raise ValueError(f"pool {self.name!r} must have positive memory")

    @property
    def total_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node

    @property
    def total_mem_gb(self) -> float:
        return self.n_nodes * self.mem_gb_per_node

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node


@dataclass
class Partition:
    """A submission target mapping onto one node pool.

    ``priority_tier`` feeds the multifactor priority's partition term (Slurm
    ``PriorityTier``); ``exclusive`` marks whole-node partitions whose jobs
    consume full nodes; ``max_nodes`` caps a single job's width.
    """

    name: str
    pool: str
    priority_tier: float = 1.0
    exclusive: bool = False
    max_nodes: int | None = None
    max_timelimit_min: float = 96.0 * 60.0
    default_timelimit_min: float = 30.0

    def __post_init__(self) -> None:
        if self.max_timelimit_min <= 0:
            raise ValueError(f"partition {self.name!r} needs positive max timelimit")


class Cluster:
    """A named set of pools and partitions with fast index lookups."""

    def __init__(self, name: str, pools: list[NodePool], partitions: list[Partition]):
        self.name = name
        self.pools: list[NodePool] = list(pools)
        self.partitions: list[Partition] = list(partitions)
        self._pool_index = {p.name: i for i, p in enumerate(self.pools)}
        if len(self._pool_index) != len(self.pools):
            raise ValueError("duplicate pool names")
        self._partition_index = {p.name: i for i, p in enumerate(self.partitions)}
        if len(self._partition_index) != len(self.partitions):
            raise ValueError("duplicate partition names")
        for part in self.partitions:
            if part.pool not in self._pool_index:
                raise ValueError(
                    f"partition {part.name!r} references unknown pool {part.pool!r}"
                )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def partition_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.partitions)

    def partition(self, key: int | str) -> Partition:
        return self.partitions[self.partition_id(key)]

    def partition_id(self, key: int | str) -> int:
        if isinstance(key, str):
            try:
                return self._partition_index[key]
            except KeyError:
                raise KeyError(
                    f"unknown partition {key!r}; known: {self.partition_names}"
                ) from None
        return int(key)

    def pool_id(self, key: int | str) -> int:
        if isinstance(key, str):
            try:
                return self._pool_index[key]
            except KeyError:
                raise KeyError(f"unknown pool {key!r}") from None
        return int(key)

    def partition_pool_ids(self) -> np.ndarray:
        """Pool index per partition, vectorised."""
        return np.array(
            [self._pool_index[p.pool] for p in self.partitions], dtype=np.intp
        )

    # ------------------------------------------------------------------ #
    # static feature vectors (Table II "Par Total *" rows)
    # ------------------------------------------------------------------ #
    def partition_specs(self) -> dict[str, np.ndarray]:
        """Static per-partition specification arrays.

        Nodes/CPUs/GPUs belonging to each partition are those of its backing
        pool (shared pools are visible in full from each partition, as with
        Slurm overlapping partitions).
        """
        pool_ids = self.partition_pool_ids()
        n_nodes = np.array([self.pools[i].n_nodes for i in pool_ids], dtype=np.float64)
        cpn = np.array(
            [self.pools[i].cpus_per_node for i in pool_ids], dtype=np.float64
        )
        mpn = np.array(
            [self.pools[i].mem_gb_per_node for i in pool_ids], dtype=np.float64
        )
        gpus = np.array(
            [self.pools[i].total_gpus for i in pool_ids], dtype=np.float64
        )
        return {
            "total_nodes": n_nodes,
            "total_cpus": n_nodes * cpn,
            "cpus_per_node": cpn,
            "mem_per_node_gb": mpn,
            "total_gpus": gpus,
        }

    def validate_request(
        self,
        partition: int | str,
        req_cpus: int,
        req_mem_gb: float,
        req_nodes: int,
        req_gpus: int = 0,
        timelimit_min: float | None = None,
    ) -> None:
        """Raise if a request can never be satisfied by the partition."""
        part = self.partition(partition)
        pool = self.pools[self._pool_index[part.pool]]
        if req_cpus <= 0 or req_nodes <= 0 or req_mem_gb <= 0:
            raise ValueError("resource requests must be positive")
        if req_cpus > pool.total_cpus:
            raise ValueError(
                f"request of {req_cpus} CPUs exceeds pool {pool.name!r} "
                f"capacity {pool.total_cpus}"
            )
        if req_mem_gb > pool.total_mem_gb:
            raise ValueError("memory request exceeds pool capacity")
        if req_gpus > pool.total_gpus:
            raise ValueError("GPU request exceeds pool capacity")
        if req_nodes > pool.n_nodes:
            raise ValueError("node request exceeds pool size")
        if part.max_nodes is not None and req_nodes > part.max_nodes:
            raise ValueError(
                f"partition {part.name!r} caps jobs at {part.max_nodes} nodes"
            )
        if timelimit_min is not None and timelimit_min > part.max_timelimit_min:
            raise ValueError(
                f"timelimit {timelimit_min} exceeds partition cap "
                f"{part.max_timelimit_min}"
            )
