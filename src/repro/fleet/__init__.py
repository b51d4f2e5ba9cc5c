"""Multi-host campaign fleet: coordinator, worker agents, record merge.

The paper's campaigns are embarrassingly parallel across experiment specs,
so they scale across machines — *if* losing a machine, a network link, or
the coordinator itself cannot lose or duplicate results. This package is
that layer:

* :mod:`repro.fleet.protocol` — the versioned ``repro-fleet/v1`` JSON/HTTP
  wire protocol and its stdlib client;
* :mod:`repro.fleet.lease` — the pure (clock-injected, I/O-free) lease
  table: TTLs, heartbeat renewal, expiry requeue with backoff, work
  stealing, host quarantine;
* :mod:`repro.fleet.coordinator` — ``repro-fi serve``: shard planning,
  lease granting, idempotent identity-keyed result merge, crash-safe state
  (checkpoint journals + ``state.json``), fleet telemetry events;
* :mod:`repro.fleet.worker` — ``repro-fi fleet-worker``: the agent that
  leases shards and runs them through the ordinary campaign engine;
* :mod:`repro.fleet.merge` — ``repro-fi merge``: offline cross-host record
  store merge with hard conflict detection.

Imports stay lazy (mirroring :mod:`repro.obs`): pulling in
:mod:`repro.fleet` must not drag the HTTP server or the engine into
processes that only want, say, the merge helper.
"""

from __future__ import annotations

_EXPORTS = {
    "FLEET_SCHEMA": "repro.fleet.protocol",
    "FleetClient": "repro.fleet.protocol",
    "LeaseTable": "repro.fleet.lease",
    "FleetCoordinator": "repro.fleet.coordinator",
    "FleetServer": "repro.fleet.coordinator",
    "FleetWorkerAgent": "repro.fleet.worker",
    "MergeStats": "repro.fleet.merge",
    "merge_stores": "repro.fleet.merge",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
