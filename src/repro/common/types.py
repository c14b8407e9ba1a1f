"""Core wire-level data types of the Fabric transaction flow.

These mirror the protobuf messages of Hyperledger Fabric v1.4 closely enough
that every step of the execute-order-validate flow operates on realistic
structures: proposals carry creator and nonce; proposal responses carry
simulated read/write sets and endorsement signatures; envelopes aggregate
endorsements; blocks are hash-chained and carry per-transaction validation
flags in their metadata, exactly as Fabric records them.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.common.crypto import Signature, sha256_hex

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ledger.ledger import CommitPlan
    from repro.statedb.snapshot import Snapshot

# A state version is the (block number, tx number) that last wrote a key —
# Fabric calls this the key's "height".
Version = typing.Tuple[int, int]


class ValidationCode(enum.Enum):
    """Per-transaction validation outcome recorded in block metadata.

    A subset of Fabric's ``TxValidationCode`` covering every outcome the
    simulation can produce.
    """

    VALID = 0
    MVCC_READ_CONFLICT = 11
    PHANTOM_READ_CONFLICT = 12
    ENDORSEMENT_POLICY_FAILURE = 10
    BAD_SIGNATURE = 4
    DUPLICATE_TXID = 30
    INVALID_OTHER = 255

    @property
    def is_valid(self) -> bool:
        return self is ValidationCode.VALID


@dataclasses.dataclass(frozen=True)
class KVRead:
    """A key read during simulation, with the version that was read."""

    key: str
    version: Version | None  # None when the key did not exist


@dataclasses.dataclass(frozen=True)
class KVWrite:
    """A key write produced during simulation."""

    key: str
    value: bytes
    is_delete: bool = False


@dataclasses.dataclass(frozen=True)
class TxReadWriteSet:
    """The read/write set produced by simulating a chaincode invocation."""

    reads: tuple[KVRead, ...]
    writes: tuple[KVWrite, ...]

    @property
    def read_keys(self) -> tuple[str, ...]:
        return tuple(read.key for read in self.reads)

    @property
    def write_keys(self) -> tuple[str, ...]:
        return tuple(write.key for write in self.writes)

    def digest(self) -> str:
        """Stable digest used for endorsement comparison and signing.

        Cached per instance: the class is frozen, so the digest can never
        go stale, and the same rw-set is digested by every endorser plus
        the block's data hash.  (``dataclasses.replace`` builds a fresh
        instance, so derived copies never inherit the cache.)
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            parts = [f"r:{r.key}:{r.version}" for r in self.reads]
            parts += [
                f"w:{w.key}:{sha256_hex(w.value)}:{w.is_delete}"
                for w in self.writes
            ]
            cached = sha256_hex("|".join(parts).encode("utf-8"))
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclasses.dataclass(frozen=True)
class Proposal:
    """A transaction proposal submitted by a client to endorsing peers."""

    tx_id: str
    channel: str
    chaincode: str
    function: str
    args: tuple[str, ...]
    creator: str
    nonce: int
    tx_size: int = 1  # payload bytes, the paper's "transaction size"
    #: ``(rwset, payload, signed response bytes)`` of the last successful
    #: endorsement, reused by an endorser whose simulation agrees.
    endorsed: tuple[TxReadWriteSet, bytes, bytes] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def bytes_to_sign(self) -> bytes:
        """Canonical bytes the client signs (cached; the class is frozen).

        Every field is length-prefixed, and the args are counted, so two
        distinct proposals never encode alike: ``args=("a,b",)`` differs
        from ``args=("a", "b")``, whatever characters the fields hold.
        """
        cached = self.__dict__.get("_bytes_to_sign")
        if cached is None:
            fields = (self.tx_id, self.channel, self.chaincode,
                      self.function, str(len(self.args)), *self.args,
                      self.creator, str(self.nonce))
            cached = "".join(f"{len(field)}:{field}"
                             for field in fields).encode("utf-8")
            object.__setattr__(self, "_bytes_to_sign", cached)
        return cached

    def well_formed(self) -> bool:
        """Endorsement check 1: the tx id hashes creator and nonce (cached)."""
        cached = self.__dict__.get("_well_formed")
        if cached is None:
            cached = bool(self.tx_id) and self.tx_id == self.compute_tx_id(
                self.creator, self.nonce)
            object.__setattr__(self, "_well_formed", cached)
        return cached

    @staticmethod
    def compute_tx_id(creator: str, nonce: int) -> str:
        """Fabric derives the tx id as a hash over nonce and creator."""
        return sha256_hex(f"{creator}:{nonce}".encode("utf-8"))


@dataclasses.dataclass(frozen=True)
class Endorsement:
    """One endorsing peer's signature over a proposal response."""

    endorser: str
    msp_id: str
    signature: Signature


@dataclasses.dataclass(frozen=True)
class ProposalResponse:
    """An endorsing peer's response to a proposal."""

    tx_id: str
    endorser: str
    status: int  # 200 on success, 500 on chaincode/endorsement failure
    payload: bytes
    rwset: TxReadWriteSet | None
    endorsement: Endorsement | None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.endorsement is not None

    def response_bytes(self) -> bytes:
        """Canonical bytes signed by ESCC (cached; the class is frozen)."""
        cached = self.__dict__.get("_response_bytes")
        if cached is None:
            cached = response_bytes(self.tx_id, self.status, self.rwset,
                                    self.payload)
            object.__setattr__(self, "_response_bytes", cached)
        return cached


def response_bytes(tx_id: str, status: int, rwset: TxReadWriteSet | None,
                   payload: bytes) -> bytes:
    """The bytes ESCC signs for a proposal response with these fields."""
    rwset_digest = rwset.digest() if rwset else "-"
    return (f"{tx_id}|{status}|{rwset_digest}|"
            f"{sha256_hex(payload)}").encode("utf-8")


@dataclasses.dataclass
class TransactionEnvelope:
    """A client-assembled transaction submitted to the ordering service."""

    tx_id: str
    channel: str
    chaincode: str
    creator: str
    rwset: TxReadWriteSet
    endorsements: tuple[Endorsement, ...]
    response_bytes: bytes
    tx_size: int = 1
    #: ``(msp, policy, revocation epoch, verdict)`` of the last VSCC
    #: validation (:meth:`repro.chaincode.system.VSCC.validate`).
    verdict: tuple[object, object, int, ValidationCode] | None = (
        dataclasses.field(default=None, init=False, repr=False,
                          compare=False))

    def wire_size(self) -> int:
        """Approximate serialized size in bytes.

        Mirrors Fabric's envelope layout: headers + payload + one signature
        block (~200 B) per endorsement + rw-set entries.
        """
        header = 512
        per_endorsement = 200
        per_rw_entry = 64
        rw_entries = len(self.rwset.reads) + len(self.rwset.writes)
        return (header + self.tx_size
                + per_endorsement * len(self.endorsements)
                + per_rw_entry * rw_entries)


@dataclasses.dataclass
class BlockMetadata:
    """Per-block metadata: orderer signature and validation flags."""

    orderer: str = ""
    signature: Signature | None = None
    validation_flags: list[ValidationCode] = dataclasses.field(
        default_factory=list)
    #: When the ordering service cut the block (simulated seconds).
    cut_at: float = 0.0


@dataclasses.dataclass
class Block:
    """A hash-chained block of transaction envelopes."""

    number: int
    previous_hash: str
    transactions: tuple[TransactionEnvelope, ...]
    channel: str
    data_hash: str = ""
    metadata: BlockMetadata = dataclasses.field(default_factory=BlockMetadata)
    #: The ledger's commit plan, built by the first peer to commit this
    #: block and reused by every peer with the same validation flags.
    commit_plan: "CommitPlan | None" = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    #: The state snapshot at the height this block's commit reached,
    #: built by the first peer to take it and adopted by every peer whose
    #: state equals it.
    snapshot: "Snapshot | None" = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.data_hash:
            self.data_hash = self.compute_data_hash()

    def compute_data_hash(self) -> str:
        """Digest over the ordered transaction ids and rw-set digests.

        Memoised on the ``transactions`` tuple itself, which the memo
        holds and compares by identity: every peer appending this block
        checks its hash, and a block whose ``transactions`` is reassigned
        or replaced computes it afresh.
        """
        transactions = self.transactions
        memo = self.__dict__.get("_data_hash_memo")
        if memo is not None and memo[0] is transactions:
            return memo[1]
        parts = [f"{tx.tx_id}:{tx.rwset.digest()}" for tx in transactions]
        digest = sha256_hex("|".join(parts).encode("utf-8"))
        self.__dict__["_data_hash_memo"] = (transactions, digest)
        return digest

    def header_hash(self) -> str:
        """The hash by which the next block references this one."""
        return sha256_hex(
            f"{self.number}|{self.previous_hash}|{self.data_hash}"
            .encode("utf-8"))

    def header_bytes(self) -> bytes:
        return self.header_hash().encode("utf-8")

    def wire_size(self) -> int:
        """Approximate serialized size in bytes for network transfer.

        Cached per instance: the transactions never change, and every
        gossip relay hop sends the block again.
        """
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = 256 + sum(tx.wire_size() for tx in self.transactions)
            self.__dict__["_wire_size"] = cached
        return cached

    def __len__(self) -> int:
        return len(self.transactions)

    GENESIS_PREVIOUS_HASH = "0" * 64

    @classmethod
    def genesis(cls, channel: str) -> "Block":
        """The configuration block at height 0."""
        return cls(number=0, previous_hash=cls.GENESIS_PREVIOUS_HASH,
                   transactions=(), channel=channel)
