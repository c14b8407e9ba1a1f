"""Per-run correctness checks; a run that fails one is a failed operation.

Every check only reads the finished network's public state, so it cannot
perturb the schedule it checks.
"""

from __future__ import annotations

import dataclasses

from repro.common.types import ValidationCode
from repro.fabric.network import FabricNetwork


@dataclasses.dataclass
class TxCensus:
    """Terminal states of every submitted transaction at the horizon."""

    submitted: int = 0
    valid: int = 0
    invalid: int = 0
    rejected: int = 0
    in_flight: int = 0


def check_horizon(network: FabricNetwork, horizon: float) -> list[str]:
    if network.sim.now < horizon:
        return [f"run stopped at t={network.sim.now} before its horizon "
                f"{horizon}"]
    return []


def check_ledgers(network: FabricNetwork) -> list[str]:
    """Peers agree on every channel's chain (``assert_ledgers_consistent``)."""
    try:
        network.assert_ledgers_consistent()
    except AssertionError as error:
        return [f"ledgers inconsistent: {error}"]
    return []


def _ledger_flags(network: FabricNetwork,
                  channel: str) -> tuple[dict[str, ValidationCode], int]:
    """tx id -> validation flag on the tallest peer's chain, duplicates."""
    ledger = max((peer.ledger_for(channel) for peer in network.peers),
                 key=lambda ledger: ledger.height)
    flags: dict[str, ValidationCode] = {}
    duplicates = 0
    for number in range(ledger.height):
        block = ledger.blocks.get(number)
        for envelope, flag in zip(block.transactions,
                                  block.metadata.validation_flags):
            if envelope.tx_id in flags:
                duplicates += 1
            flags[envelope.tx_id] = flag
    return flags, duplicates


def check_conservation(network: FabricNetwork) -> tuple[list[str], TxCensus]:
    """Every submitted tx is valid, invalid, rejected or in flight — once.

    The collector's records are checked against two independent sources:
    the clients' own submit/commit/reject counters and the committed
    chains.  A transaction that vanishes from either side, or commits
    with another verdict than the client saw, is a violation.
    """
    problems: list[str] = []
    census = TxCensus()
    records = network.metrics.records
    for tx_id, record in records.items():
        if record.submitted is None:
            problems.append(f"tx {tx_id} recorded but never submitted")
            continue
        census.submitted += 1
        if record.rejected is not None:
            census.rejected += 1
        elif record.committed is None:
            census.in_flight += 1
        elif record.validation_code is ValidationCode.VALID:
            census.valid += 1
        else:
            census.invalid += 1
    clients = network.clients
    for what, ours, theirs in (
            ("submitted", census.submitted,
             sum(client.submitted for client in clients)),
            ("committed valid", census.valid,
             sum(client.committed for client in clients)),
            ("rejected", census.rejected,
             sum(client.rejected for client in clients))):
        if ours != theirs:
            problems.append(f"{what}: collector counts {ours}, "
                            f"clients count {theirs}")
    for channel in network.channel_names:
        flags, duplicates = _ledger_flags(network, channel)
        if duplicates:
            problems.append(f"{channel}: {duplicates} tx ids committed twice")
        for tx_id, flag in flags.items():
            record = records.get(tx_id)
            if record is None or record.submitted is None:
                problems.append(f"{channel}: ledger tx {tx_id} was never "
                                f"submitted")
            elif (record.committed is not None
                    and record.validation_code is not flag):
                problems.append(f"{channel}: tx {tx_id} committed as {flag} "
                                f"but the client saw "
                                f"{record.validation_code}")
        for tx_id, record in records.items():
            if (record.channel == channel and record.committed is not None
                    and tx_id not in flags):
                problems.append(f"{channel}: tx {tx_id} reported committed "
                                f"but is on no peer's chain")
    return problems[:5], census

