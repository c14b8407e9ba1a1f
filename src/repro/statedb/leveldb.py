"""GoLevelDB-like backend: embedded, cheap point reads, batched writes.

Fabric's default state database runs in the peer process.  Point reads hit
the memtable/SSTable cache; commits go through a single WriteBatch whose
fsync rides the block-store append, leaving only a small per-key cost.  The
default constants reproduce the repo's original flat commit calibration
(``leveldb_write_per_key_io``, 0.12 ms per transaction), so LevelDB runs
match the paper's measured peaks unchanged.
"""

from __future__ import annotations

from repro.runtime.costs import CostModel
from repro.statedb.backend import StateBackend


class LevelDBBackend(StateBackend):
    """Embedded key-value store cost model (Fabric's GoLevelDB)."""

    kind = "leveldb"

    @staticmethod
    def _point_read_cost(costs: CostModel) -> float:
        return costs.leveldb_read_io

    @staticmethod
    def _scan_cost(costs: CostModel, num_keys: float) -> float:
        return costs.leveldb_read_io + num_keys * costs.leveldb_scan_per_key_io

    @staticmethod
    def _bulk_read_cost(costs: CostModel, num_keys: float) -> float:
        # An embedded store has no request round trip to amortize: a bulk
        # read is just the point reads back to back.
        return num_keys * costs.leveldb_read_io

    @staticmethod
    def _commit_cost(costs: CostModel, num_writes: float,
                     unknown_revisions: float, bulk: bool) -> float:
        # LevelDB writes blindly (no revision read-before-write); a batch
        # of N keys costs the batch setup plus N sequential appends.
        return (costs.leveldb_write_batch_base_io
                + num_writes * costs.leveldb_write_per_key_io)
