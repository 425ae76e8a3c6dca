"""Fault-tolerant distributed campaign service.

An orchestrator (one queue of cold cells, leases, heartbeats) plus TCP
worker hosts that run the supervised single-host engine per leased cell.
See ``docs/service.md`` for the protocol and the failure model;
results are bit-identical to single-host runs because cells are pure
functions of their specs and the shared store is content-addressed.

Front doors: ``repro.cli serve`` / ``repro.cli work`` run the pieces
standalone; ``execute_cells(cells, hosts=...)`` (so
``Campaign.run(hosts=...)`` and ``--hosts`` on any campaign CLI) sends
a campaign's cells through the service instead of the process pool —
the same front door, a different carrier.
"""

from .client import LocalCluster, ServiceError, execute_cells_remote
from .orchestrator import Orchestrator, merged_events
from .protocol import LINE_LIMIT, ProtocolError, parse_address
from .worker import WorkerError, WorkerHost, host_log_path, run_worker

__all__ = [
    "LINE_LIMIT",
    "LocalCluster",
    "Orchestrator",
    "ProtocolError",
    "ServiceError",
    "WorkerError",
    "WorkerHost",
    "execute_cells_remote",
    "host_log_path",
    "merged_events",
    "parse_address",
    "run_worker",
]
