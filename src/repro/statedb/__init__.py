"""Pluggable state-database backends with calibrated cost models.

See :mod:`repro.statedb.backend` for the interface and the accrue/drain
cost-charging contract, :mod:`repro.statedb.leveldb` /
:mod:`repro.statedb.couchdb` for the two calibrated backends, and
:mod:`repro.statedb.snapshot` for checkpoint/catch-up support.
"""

from __future__ import annotations

from repro.common.config import StateDBConfig
from repro.runtime.costs import CostModel
from repro.statedb.backend import BackendStats, StateBackend, VersionedValue
from repro.statedb.cache import ReadCache
from repro.statedb.couchdb import CouchDBBackend
from repro.statedb.leveldb import LevelDBBackend
from repro.statedb.snapshot import Snapshot, SnapshotManifest

__all__ = [
    "BACKENDS",
    "BackendStats",
    "CouchDBBackend",
    "LevelDBBackend",
    "ReadCache",
    "Snapshot",
    "SnapshotManifest",
    "StateBackend",
    "VersionedValue",
    "build_backend",
]

#: Backend class per ``StateDBConfig.kind``.  The analytic phase model
#: prices state-DB work with these classes' static cost functions.
BACKENDS: dict[str, type[StateBackend]] = {
    "leveldb": LevelDBBackend,
    "couchdb": CouchDBBackend,
}


def build_backend(config: StateDBConfig, costs: CostModel) -> StateBackend:
    """Construct the backend described by ``config``."""
    config.validate()
    cache = ReadCache(config.cache_size) if config.cache else None
    return BACKENDS[config.kind](costs, cache=cache, bulk=config.bulk)
