"""Slurm-like scheduling substrate.

The paper trains on accounting history from a real Slurm deployment (Anvil,
multifactor priority + fair-share + backfill).  This package is the
simulation substitute: an event-driven scheduler over an Anvil-shaped
cluster whose queue times *emerge* from resource contention, priority
ordering and backfill — so the engineered features keep their causal
relationship to the target.

Components: resource model (:mod:`resources`), the Anvil shape
(:mod:`anvil`), multifactor priority (:mod:`priority`), fair-share usage
decay (:mod:`fairshare`), the EASY-backfill scheduler (:mod:`scheduler`) and
the event loop (:mod:`simulator`), with sacct-style output
(:mod:`accounting`).
"""

from repro.slurm.anvil import anvil_cluster
from repro.slurm.fairshare import FairShareTracker
from repro.slurm.priority import MultifactorPriority, PriorityWeights
from repro.slurm.resources import Cluster, NodePool, Partition
from repro.slurm.queue import EventQueue, JobPool
from repro.slurm.simulator import PreemptionPolicy, SimulationResult, Simulator

__all__ = [
    "anvil_cluster",
    "FairShareTracker",
    "MultifactorPriority",
    "PriorityWeights",
    "Cluster",
    "NodePool",
    "Partition",
    "Simulator",
    "SimulationResult",
    "PreemptionPolicy",
    "EventQueue",
    "JobPool",
]
