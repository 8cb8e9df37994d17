"""Public Session API: one declarative entry point for a whole run.

This package is the stable front door of the reproduction — the OmpSs-style
ergonomics the paper assumes, without hand-assembling engines, policies and
executors:

>>> from repro.session import Session, ReproConfig
>>> cfg = ReproConfig.from_dict({
...     "runtime": {"executor": "simulated", "num_threads": 8},
...     "atm": {"mode": "static"},
... })
>>> with Session(cfg) as s:
...     pass  # declare tasks with @s.task(...), then s.wait_all()

Three pieces:

* :class:`Session` (:mod:`repro.session.session`) — owns assembly of engine +
  policy + executor + graph and exposes ``@s.task`` / ``submit`` /
  ``wait_all`` / ``finish``;
* :class:`ReproConfig` (:mod:`repro.session.config`) — the unified
  ``runtime``/``atm``/``simulation`` config tree with dict / TOML / JSON /
  environment round-tripping;
* the registries (:mod:`repro.session.registry`) — ``register_executor`` /
  ``register_scheduler`` / ``register_policy`` extension hooks so plugin
  backends drop in without touching call sites (DESIGN.md §6.2).
"""

from repro.runtime.data import In, InOut, Out
from repro.session.config import ENV_PREFIX, ReproConfig
from repro.session.registry import (
    available_executors,
    available_policies,
    available_schedulers,
    register_executor,
    register_policy,
    register_scheduler,
    unregister_executor,
    unregister_policy,
    unregister_scheduler,
)
from repro.session.session import Session

__all__ = [
    "Session",
    "ReproConfig",
    "ENV_PREFIX",
    "In",
    "Out",
    "InOut",
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
