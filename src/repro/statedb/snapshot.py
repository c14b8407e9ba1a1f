"""State snapshots: manifest + frozen entry list for peer catch-up.

Models Fabric's ledger checkpointing: every N committed blocks the peer
serializes its world state together with a manifest recording the height it
was taken at and a hash over the entries.  A recovering peer restores the
latest snapshot and replays only the blocks past its height, instead of
replaying the whole chain from genesis.
"""

from __future__ import annotations

import dataclasses

from repro.common.crypto import sha256_hex
from repro.common.types import Version

#: Approximate serialized overhead per entry beyond key and value bytes
#: (version tuple, length prefixes).
ENTRY_OVERHEAD_BYTES = 16


@dataclasses.dataclass(frozen=True)
class SnapshotManifest:
    """What identifies a snapshot: where it was taken and of what."""

    height: int            # ledger height (blocks committed) at the snapshot
    state_hash: str        # digest over the sorted (key, value, version) set
    entry_count: int
    byte_size: int         # serialized size charged to snapshot I/O


#: One frozen state entry: ``(key, (value, version))``.
Entry = tuple[str, tuple[bytes, Version]]


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A manifest plus the frozen state entries, in key order.

    The entries hold the state backend's stored ``(value, version)``
    tuples, which the cyclic garbage collector stops tracking.  Peers
    whose states are equal at a height share one snapshot (see
    :func:`take`).
    """

    manifest: SnapshotManifest
    entries: tuple[Entry, ...]


def state_hash(entries: tuple[Entry, ...]) -> str:
    """Stable digest over sorted state entries."""
    parts = [f"{key}:{sha256_hex(value)}:{version}"
             for key, (value, version) in entries]
    return sha256_hex("|".join(parts).encode("utf-8"))


def take(entries: tuple[Entry, ...], height: int,
         shared: Snapshot | None = None) -> Snapshot:
    """Snapshot a state's key-ordered ``entries`` as of ``height``
    committed blocks.

    Returns ``shared`` itself when it was taken at ``height`` of a state
    whose entries equal ``entries``: peers that commit the same plans
    store the same entry tuples, so the comparison is mostly identity
    tests, and only the first such peer hashes the state.
    """
    if (shared is not None and shared.manifest.height == height
            and shared.entries == entries):
        return shared
    byte_size = sum(len(key) + len(value) + ENTRY_OVERHEAD_BYTES
                    for key, (value, _) in entries)
    manifest = SnapshotManifest(
        height=height, state_hash=state_hash(entries),
        entry_count=len(entries), byte_size=byte_size)
    return Snapshot(manifest=manifest, entries=entries)
