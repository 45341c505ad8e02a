"""Workload generators and drivers for the paper's evaluation.

* :mod:`repro.workloads.pingpong` — the §8 protocol: two processes take
  turns sending and receiving; one iteration is a round trip; 200
  iterations with the last 100 timed; each point is the mean of 3 runs.
  One buffer rank main serves Figure 9 and the ``python -m repro.cluster``
  pairs.
* :mod:`repro.workloads.linkedlist` — the Figure 5/10 structure: a linked
  list whose elements each reference an int array, the 4096-byte payload
  evenly distributed; total objects = 2 × elements.
* :mod:`repro.workloads.adapters` — the flavor table: each compared
  system by name, built as the face the drivers call (a baseline's binding
  itself; Motor's ``System.MP`` in the same verbs), so the same driver
  measures every system.
* :mod:`repro.workloads.elastic` — the self-healing runtime's acceptance
  workload: a sharded work queue with coordinated checkpoints that
  survives scheduled kills and partitions with an exactly-once ledger.
* :mod:`repro.workloads.halo` — 2-D halo exchange over one-sided RMA
  windows; the same rank main runs the native and emulated window arms
  (ablation A17) with bit-identical grids.
"""

from repro.workloads.adapters import ADAPTERS, make_adapter
from repro.workloads.elastic import ChaosEvent, ChaosSchedule, ElasticConfig, run_elastic
from repro.workloads.halo import HaloExchange, run_halo
from repro.workloads.linkedlist import build_linked_list, list_payload_ints, verify_linked_list
from repro.workloads.pingpong import (
    sweep_buffer_pingpong,
    sweep_tree_pingpong,
)

__all__ = [
    "ADAPTERS",
    "make_adapter",
    "build_linked_list",
    "verify_linked_list",
    "list_payload_ints",
    "sweep_buffer_pingpong",
    "sweep_tree_pingpong",
    "ChaosEvent",
    "ChaosSchedule",
    "ElasticConfig",
    "run_elastic",
    "HaloExchange",
    "run_halo",
]
