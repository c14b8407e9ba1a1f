"""Chaincode interface and the invocation stub.

A chaincode's ``invoke`` runs against a :class:`ChaincodeStub`, which exposes
``get_state`` / ``put_state`` / ``del_state`` / ``get_state_range`` over a
*read view* of the peer's world state.  The stub records every read with the
version observed and buffers every write — producing the transaction's
read/write set, exactly as Fabric's transaction simulation does.  Writes are
visible to subsequent reads within the same invocation (read-your-writes),
but never touch the world state: only the committer applies them.
"""

from __future__ import annotations

import typing

from repro.common.types import KVRead, KVWrite, TxReadWriteSet

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.statedb.backend import StateBackend


class ChaincodeError(Exception):
    """Raised by chaincode logic; turns into a 500 proposal response."""


class ChaincodeStub:
    """Records reads and buffers writes for one chaincode invocation."""

    def __init__(self, state: "StateBackend", tx_id: str,
                 creator: str) -> None:
        self._state = state
        self.tx_id = tx_id
        self.creator = creator
        self._reads: dict[str, KVRead] = {}
        self._writes: dict[str, KVWrite] = {}

    def get_state(self, key: str) -> bytes | None:
        """Read ``key``; returns None if absent.  Records the read version."""
        buffered = self._writes.get(key)
        if buffered is not None:
            return None if buffered.is_delete else buffered.value
        entry = self._state.get(key)
        version = entry.version if entry is not None else None
        # First read wins: Fabric records the version observed first.
        self._reads.setdefault(key, KVRead(key=key, version=version))
        return entry.value if entry is not None else None

    def put_state(self, key: str, value: bytes) -> None:
        """Buffer a write of ``value`` to ``key``."""
        if not isinstance(value, bytes):
            raise ChaincodeError(
                f"put_state value must be bytes, got {type(value).__name__}")
        self._writes[key] = KVWrite(key=key, value=value)

    def del_state(self, key: str) -> None:
        """Buffer a deletion of ``key``."""
        self._writes[key] = KVWrite(key=key, value=b"", is_delete=True)

    def get_state_range(self, start_key: str,
                        end_key: str) -> list[tuple[str, bytes]]:
        """Range read; records a read (with version) for every key seen."""
        results = []
        for key, entry in self._state.range_scan(start_key, end_key):
            self._reads.setdefault(key, KVRead(key=key, version=entry.version))
            buffered = self._writes.get(key)
            if buffered is not None:
                if not buffered.is_delete:
                    results.append((key, buffered.value))
                continue
            results.append((key, entry.value))
        return results

    def build_rwset(self) -> TxReadWriteSet:
        """The read/write set accumulated by this invocation."""
        return TxReadWriteSet(
            reads=tuple(self._reads[key] for key in sorted(self._reads)),
            writes=tuple(self._writes[key] for key in sorted(self._writes)))


class Chaincode:
    """Base class for user chaincodes."""

    #: Name under which the chaincode is installed on peers.
    name: str = ""

    def invoke(self, stub: ChaincodeStub, function: str,
               args: typing.Sequence[str]) -> bytes:
        """Execute ``function(args)``; returns the response payload.

        Raise :class:`ChaincodeError` to fail the proposal (HTTP-500-style
        response, no endorsement).
        """
        raise NotImplementedError

    def init(self, stub: ChaincodeStub, args: typing.Sequence[str]) -> bytes:
        """Instantiate-time initialization; default is a no-op."""
        return b""
