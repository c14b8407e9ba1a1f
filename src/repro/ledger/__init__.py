"""The Fabric ledger: block store, history index, and the world state held
by a :mod:`repro.statedb` backend.

Both valid and invalid transactions are recorded into the blockchain, while
only valid transactions update the world state (§II of the paper).
"""

from repro.ledger.blockchain import BlockStore
from repro.ledger.history import HistoryDB
from repro.ledger.ledger import Ledger

__all__ = [
    "BlockStore",
    "HistoryDB",
    "Ledger",
]
