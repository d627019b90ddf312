"""Invocation isolation: one supervised worker pool, two handle kinds.

The paper treats the application ``E`` as an untrusted black box that may
hang ("terminate the execution after a short timeout period", §4.1), crash,
or exhaust memory.  This package moves every black-box invocation into a
supervised worker so none of those failure modes can take down the
extraction or corrupt its checkpoints:

* :mod:`repro.isolation.protocol` — length-prefixed pickle frames over a
  worker's stdin/stdout pipes, and authenticated frames over TCP;
* :mod:`repro.isolation.worker` — the worker process: resident database
  replica, delta reconciliation, sandboxed runs, ``RLIMIT_AS`` memory cap;
* :mod:`repro.isolation.supervisor` — the one :class:`WorkerPool`: slot
  leasing, hard deadlines, crash classification, respawn and quarantine
  policy, delta shipping and pool metrics over handles built by a handle
  factory; and the local handle kind, :class:`WorkerHandle` (a subprocess);
* :mod:`repro.isolation.remote` — the TCP handle kind: a connection to a
  worker agent with lease epochs and fencing tokens, EWMA failure
  detection, heartbeats, capped-backoff reconnect with peer failover
  (DESIGN.md §5.18);
* :mod:`repro.isolation.agent` — the standalone worker agent
  (``python -m repro.isolation.agent --listen host:port``) serving workers
  to remote supervisors, each spawned through a local :class:`WorkerHandle`;
* :mod:`repro.isolation.backend` — the :class:`ProcessIsolationBackend` the
  session delegates to under ``--isolate process`` and ``--isolate remote``;
  it picks the pool's handle factory from ``config.isolate``.
"""

from repro.isolation.backend import ProcessIsolationBackend, spec_from_config
from repro.isolation.supervisor import (
    PoolStats,
    WorkerHandle,
    WorkerPool,
    WorkerSpec,
)

__all__ = [
    "PoolStats",
    "ProcessIsolationBackend",
    "WorkerHandle",
    "WorkerPool",
    "WorkerSpec",
    "spec_from_config",
]
