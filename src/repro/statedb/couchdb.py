"""CouchDB-like backend: out-of-process HTTP/JSON store with bulk APIs.

Models the cost structure Thakkar et al. measure (§IV-B): every operation
is an HTTP request with fixed per-request overhead (connection handling,
JSON marshalling) plus per-document work, and a write must first learn the
document's current ``_rev`` (a read) before the PUT is accepted.  The bulk
APIs (``_all_docs`` for reads, ``_bulk_docs`` for writes) amortize the
request overhead over a whole block, and the peer-side read cache removes
the revision lookups of keys it holds — together these recover most of
the LevelDB/CouchDB throughput gap, which is exactly the ablation the
``repro statedb`` experiment reproduces.
"""

from __future__ import annotations

from repro.runtime.costs import CostModel
from repro.statedb.backend import StateBackend


class CouchDBBackend(StateBackend):
    """Out-of-process document store cost model (Fabric's CouchDB)."""

    kind = "couchdb"

    @staticmethod
    def _point_read_cost(costs: CostModel) -> float:
        return costs.couch_request_io + costs.couch_read_per_doc_io

    @staticmethod
    def _scan_cost(costs: CostModel, num_keys: float) -> float:
        # One range query request, per-document decode on the way back.
        return costs.couch_request_io + num_keys * costs.couch_read_per_doc_io

    @staticmethod
    def _bulk_read_cost(costs: CostModel, num_keys: float) -> float:
        # One _all_docs?include_docs=true request for the whole key set.
        return costs.couch_request_io + num_keys * costs.couch_read_per_doc_io

    @staticmethod
    def _commit_cost(costs: CostModel, num_writes: float,
                     unknown_revisions: float, bulk: bool) -> float:
        per_doc_writes = num_writes * costs.couch_write_per_doc_io
        if bulk:
            # One bulk revision fetch for the unknown keys (if any), then a
            # single _bulk_docs request carrying every write.
            cost = costs.couch_request_io + per_doc_writes
            if unknown_revisions:
                cost += (costs.couch_request_io
                         + unknown_revisions * costs.couch_read_per_doc_io)
            return cost
        # Without bulk update: per key, a revision GET (when the revision
        # is not cached/prefetched) followed by an individual PUT.
        cost = num_writes * costs.couch_request_io + per_doc_writes
        cost += unknown_revisions * (costs.couch_request_io
                                     + costs.couch_read_per_doc_io)
        return cost
