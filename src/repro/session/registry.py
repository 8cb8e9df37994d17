"""Public registration hooks of the Session API.

Future backends plug into the Session assembly path by name, without any
call-site changes — registering a name immediately makes it a valid
``RuntimeConfig.executor`` / ``RuntimeConfig.scheduler`` / ``ATMConfig.mode``
value, a valid ``Session(executor=..., policy=...)`` argument and a valid
config-file/env value:

>>> from repro.session import (
...     register_executor, unregister_executor, available_executors,
... )
>>> from repro.runtime.executor import SerialExecutor
>>> register_executor(
...     "loopback",
...     lambda config, engine, sim_config: SerialExecutor(config=config, engine=engine),
... )
>>> "loopback" in available_executors()
True
>>> unregister_executor("loopback")

Factory signatures
------------------
* executor: ``factory(config: RuntimeConfig, engine, sim_config) -> BaseExecutor``
* scheduler: ``factory(config: RuntimeConfig) -> Scheduler``
* policy: ``factory(config: ATMConfig | None, p: float | None) -> ATMPolicy``

Every builtin backend — including the remote-worker ``"process"`` and
``"network"`` backends (DESIGN.md §4.3) — is registered through this same
seam, so a plugin backend is selectable from config alone by every existing
harness — figures, bench, examples.
"""

from __future__ import annotations

from typing import Callable

from repro.common.registry import EXECUTORS, POLICIES, SCHEDULERS

__all__ = [
    "register_executor",
    "register_scheduler",
    "register_policy",
    "unregister_executor",
    "unregister_scheduler",
    "unregister_policy",
    "available_executors",
    "available_schedulers",
    "available_policies",
]


def register_executor(name: str, factory: Callable, *, replace: bool = False) -> None:
    """Register an execution backend under ``name`` (see module docstring)."""
    EXECUTORS.register(name, factory, replace=replace)


def register_scheduler(name: str, factory: Callable, *, replace: bool = False) -> None:
    """Register a ready-queue scheduler under ``name``."""
    SCHEDULERS.register(name, factory, replace=replace)


def register_policy(name: str, factory: Callable, *, replace: bool = False) -> None:
    """Register an ATM operating policy under ``name``."""
    POLICIES.register(name, factory, replace=replace)


def unregister_executor(name: str) -> None:
    """Remove a plugin backend (builtins cannot be removed)."""
    EXECUTORS.unregister(name)


def unregister_scheduler(name: str) -> None:
    SCHEDULERS.unregister(name)


def unregister_policy(name: str) -> None:
    POLICIES.unregister(name)


def available_executors() -> tuple[str, ...]:
    """All selectable executor names, builtins first."""
    return EXECUTORS.names()


def available_schedulers() -> tuple[str, ...]:
    return SCHEDULERS.names()


def available_policies() -> tuple[str, ...]:
    return POLICIES.names()
