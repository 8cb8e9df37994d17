"""Task-based dataflow runtime system (OmpSs / Nanos++ analogue).

The runtime exposes the same concepts the paper relies on:

* typed **data regions** with ``in`` / ``out`` / ``inout`` access annotations
  (:mod:`repro.runtime.data`);
* **tasks** and **task types** (:mod:`repro.runtime.task`);
* a **dependence system** that orders tasks by their declared accesses and
  builds the task dependence graph (:mod:`repro.runtime.dependences`,
  :mod:`repro.runtime.graph`);
* **ready queues** and **schedulers** (:mod:`repro.runtime.ready_queue`,
  :mod:`repro.runtime.scheduler`);
* five executor backends: serial, real-thread, remote-worker (forked
  subprocesses over shared memory as ``"process"``, loopback or TCP workers
  as ``"network"``) and a deterministic discrete-event multicore simulator
  (:mod:`repro.runtime.executor`, :mod:`repro.runtime.net_executor`,
  :mod:`repro.runtime.simulator`, selected by registry name via
  :func:`repro.runtime.executor.build_executor`; see DESIGN.md §4);
* an execution **trace recorder** used to regenerate the paper's Figures 7
  and 8 (:mod:`repro.runtime.trace`).

The user-facing programming surface is :class:`repro.session.Session`.
"""

from repro.runtime.data import AccessMode, DataAccess, DataRegion, In, InOut, Out
from repro.runtime.task import Task, TaskState, TaskType
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.executor import (
    RunResult,
    SerialExecutor,
    ThreadedExecutor,
    build_executor,
)
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.net_executor import NetworkExecutor

__all__ = [
    "AccessMode",
    "DataAccess",
    "DataRegion",
    "In",
    "Out",
    "InOut",
    "Task",
    "TaskState",
    "TaskType",
    "TaskDependenceGraph",
    "RunResult",
    "SerialExecutor",
    "ThreadedExecutor",
    "SimulatedExecutor",
    "NetworkExecutor",
    "build_executor",
]
