"""The calibrated cost model standing in for the paper's testbed hardware.

Every constant is either taken from the paper's configuration (Table I,
§III, §IV) or calibrated against the paper's own measurements (Tables II and
III); the derivation is in DESIGN.md §2 and the resulting paper-vs-measured
comparison in EXPERIMENTS.md.  The key calibration targets:

- one fabric-sdk-node client sustains ~50 tx/s (Table II scales ~50 tps per
  added endorsing peer under *every* policy, and the paper runs one client
  per endorsing peer — Fig. 1's per-peer arrival fractions);
- the validate phase saturates at ~305 tps with one endorsement per tx (OR)
  and ~210 tps with five (AND5) — the paper's bottleneck values;
- endorsement itself is cheap (~4 ms CPU), so the execute phase scales with
  peers under OR, while under AND every target peer endorses every
  transaction.
"""

from __future__ import annotations

import dataclasses
from math import inf

from repro.common.errors import ConfigurationError


@dataclasses.dataclass
class CostModel:
    """Per-operation costs, in seconds (CPU time unless stated otherwise)."""

    # ------------------------------------------------------------------
    # Client (fabric-sdk-node 1.0.0 on Node.js 8.16.2, one CPU thread)
    # ------------------------------------------------------------------
    #: CPU to build and sign a transaction proposal.
    client_prep_cpu: float = 0.012
    #: CPU to check one endorsement response and fold it into the envelope.
    client_collect_cpu: float = 0.003
    #: CPU to assemble and broadcast the envelope to the ordering service.
    client_submit_cpu: float = 0.005
    #: Fixed SDK pipeline latency (gRPC marshalling, MSP config access);
    #: asynchronous, so it adds latency without consuming client CPU.
    sdk_base_latency: float = 0.19
    #: Additional pipeline latency per endorsement collected.
    sdk_per_endorsement_latency: float = 0.05
    #: Hardware threads per client machine driving the SDK event loop.
    client_threads: int = 1

    # ------------------------------------------------------------------
    # Endorsing peer (execute phase)
    # ------------------------------------------------------------------
    #: Cores per peer machine (i7-2600 has 4 physical cores).
    peer_cores: int = 4
    #: CPU per proposal: checks 1-4 of §II + chaincode execution + ESCC.
    endorse_cpu: float = 0.004
    #: Docker-container round-trip latency for user chaincode (not CPU).
    chaincode_container_latency: float = 0.003
    #: Concurrent endorsement slots per peer (gRPC handler pool).
    endorser_concurrency: int = 4

    # ------------------------------------------------------------------
    # Validating peer (validate phase)
    # ------------------------------------------------------------------
    #: VSCC fixed CPU per transaction (policy fetch, proto unmarshalling).
    vscc_base_cpu: float = 0.0047
    #: VSCC CPU per endorsement signature verified — this is why AND
    #: validates slower than OR.
    vscc_per_endorsement_cpu: float = 0.00074
    #: Parallel VSCC workers per peer (Fabric's validator pool).
    validator_workers: int = 2
    #: Serial MVCC read-conflict check per transaction.
    mvcc_per_tx_cpu: float = 0.00025
    #: Block commit: ledger (block store) append, one fsync per block.
    commit_per_block_io: float = 0.018
    #: Verify the orderer's signature on a received block.
    block_verify_cpu: float = 0.0008

    # ------------------------------------------------------------------
    # State database backends (Thakkar et al.: GoLevelDB vs CouchDB)
    # ------------------------------------------------------------------
    #: GoLevelDB point read (embedded, memtable/SSTable hit).
    leveldb_read_io: float = 0.00002
    #: GoLevelDB iterator step per key during a range scan.
    leveldb_scan_per_key_io: float = 0.000004
    #: GoLevelDB WriteBatch: the batch fsync rides the block-store append
    #: (commit_per_block_io), so only the per-key cost is charged.
    leveldb_write_batch_base_io: float = 0.0
    #: GoLevelDB per-key cost inside a write batch (the flat 0.12 ms per
    #: transaction commit calibration, so default runs reproduce the paper).
    leveldb_write_per_key_io: float = 0.00012
    #: CouchDB per-HTTP-request overhead (connection, headers, JSON parse)
    #: — the dominant term Thakkar et al. measure, and what the bulk APIs
    #: (_all_docs / _bulk_docs) amortize over a whole block.
    couch_request_io: float = 0.004
    #: CouchDB per-document cost on a read (B-tree lookup + JSON encode).
    couch_read_per_doc_io: float = 0.0004
    #: CouchDB per-document cost on a write (revision check, index update,
    #: append-only B-tree write).
    couch_write_per_doc_io: float = 0.0008
    #: Snapshot serialization / restore throughput (charged per byte).
    snapshot_io_per_byte: float = 2.0e-8

    # ------------------------------------------------------------------
    # Ordering service
    # ------------------------------------------------------------------
    #: OSN CPU per envelope received (TLS, unmarshalling, size checks).
    orderer_per_envelope_cpu: float = 0.00035
    orderer_cores: int = 4
    #: Sign a cut block.
    block_sign_cpu: float = 0.0012
    #: Kafka broker CPU to append one message to the partition log.
    kafka_append_cpu: float = 0.00015
    #: ZooKeeper quorum-write service time (leader election bookkeeping).
    zookeeper_write_cpu: float = 0.0002
    #: Raft node CPU to append one entry to its log.
    raft_append_cpu: float = 0.00015
    #: Disk fsync charged when a consensus log forces to stable storage.
    consensus_fsync_io: float = 0.0004

    # ------------------------------------------------------------------
    # TLS (enabled on both orderers and peers in the paper)
    # ------------------------------------------------------------------
    #: CPU per message for TLS record processing, charged at the receiver.
    tls_per_message_cpu: float = 0.00003

    def validate(self) -> None:
        # Written so that NaN fails it: a NaN or infinite cost reaches the
        # kernel as a delay it cannot schedule, mid-run and unnamed.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, (int, float)) and not 0 <= value < inf:
                raise ConfigurationError(
                    f"{field.name} must be finite and >= 0, got {value}")
        for field_name in ("peer_cores", "endorser_concurrency",
                           "validator_workers", "orderer_cores",
                           "client_threads"):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"{field_name} must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities (Table I's client rate, the VSCC charge)
    # ------------------------------------------------------------------

    def client_capacity(self) -> float:
        """Max tx/s one client process can generate."""
        per_tx = (self.client_prep_cpu + self.client_collect_cpu
                  + self.client_submit_cpu)
        return self.client_threads / per_tx

    def vscc_tx_cpu(self, endorsements: int) -> float:
        """VSCC CPU for one transaction carrying ``endorsements`` signatures."""
        return (self.vscc_base_cpu
                + self.vscc_per_endorsement_cpu * endorsements)
