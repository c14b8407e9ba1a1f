"""Edge cases of the client SDK: disagreement, late responses, nacks."""


from repro.common.types import ValidationCode
from tests.client.test_sdk import invoke_sync, tiny_network


def test_diverged_endorsements_rejected(monkeypatch):
    # Endorsing peers with diverged world state produce different
    # read/write sets; the client must refuse to build the envelope.
    network = tiny_network(policy="AND(1..n)", peers=3)
    peer_a, peer_b, peer_c = network.endorsing_peers
    # Manually diverge peer_c's state for the key the chaincode will read.
    from repro.common.types import KVWrite

    peer_c.ledger.state.apply_write(KVWrite("hot", b"stale"), (5, 5))
    transport = network.context.network
    sent = []
    send = transport.send

    def recording_send(message):
        sent.append(message)
        send(message)

    monkeypatch.setattr(transport, "send", recording_send)
    client = network.clients[0]
    tx_id, outcome = invoke_sync(network, client, "kvstore", "update",
                                 ["hot", "new"])
    assert outcome == "endorsements disagree"
    record = network.metrics.records[tx_id]
    assert record.broadcast is None
    assert record.rejected is not None
    # The agreeing endorsers share one rwset and sign the same bytes; the
    # diverged one carries its own.  Each signature is over its response.
    responses = {message.source: message.payload for message in sent
                 if message.msg_type == "proposal_response"}
    first, second, diverged = (responses[peer.name] for peer in
                               (peer_a, peer_b, peer_c))
    assert first.rwset is second.rwset
    assert diverged.rwset != first.rwset
    assert first.response_bytes() == second.response_bytes()
    assert diverged.response_bytes() != first.response_bytes()
    for response in (first, second, diverged):
        signature = response.endorsement.signature
        assert signature.signer == response.endorser
        assert network.msp.verify_signature(
            signature, response.response_bytes(), "Org1")


def test_late_proposal_response_after_timeout_is_dropped():
    network = tiny_network(peers=1)
    client = network.clients[0]
    network.peers[0].crash()

    process = client.invoke("noop", "write", ["k", "v"])
    network.sim.run(until=10.0)
    assert process.value[1] == "endorsement timeout"
    # Peer comes back and could, in principle, send a stale response;
    # deliver a fabricated one and ensure the client ignores it.
    network.peers[0].recover()
    from repro.common.types import ProposalResponse
    from repro.sim.network import Message

    stale = ProposalResponse(tx_id=process.value[0], endorser="peer0",
                             status=200, payload=b"", rwset=None,
                             endorsement=None)
    network.context.network.send(Message(
        "peer0", client.name, "proposal_response", stale, size=100))
    network.sim.run(until=12.0)  # must not crash or resurrect the tx
    assert client.rejected == 1


def test_orderer_nack_records_rejection():
    network = tiny_network()
    client = network.clients[0]
    # Point the client at a channel the orderer does not serve.
    client.channel = "ghost-channel"
    network.msp.grant_channel_writer("ghost-channel", client.name)
    for peer in network.peers:
        peer.join_channel("ghost-channel", network.policy)
    process = client.invoke("noop", "write", ["k", "v"])
    network.sim.run(until=10.0)
    tx_id, outcome = process.value
    # The nack fails the attempt fast — well before the 3 s timeout —
    # and a non-retryable reason is recorded as the rejection.
    assert outcome == "orderer nack: bad channel"
    record = network.metrics.records[tx_id]
    assert record.rejected is not None and record.rejected < 4.0
    assert "nack" in record.reject_reason


def test_client_counts_match_metrics():
    network = tiny_network(peers=2, batch_size=1)
    client = network.clients[0]
    for index in range(3):
        invoke_sync(network, client, "noop", "write",
                    [f"k{index}", "v"], until=25.0 + 20 * index)
    assert client.submitted == 3
    assert client.committed == 3
    assert client.rejected == 0


def test_invalid_transaction_outcome_reported():
    network = tiny_network(peers=2, batch_size=2)
    a, b = network.clients[0], network.clients[1]
    process_a = a.invoke("kvstore", "update", ["dup", "1"])
    process_b = b.invoke("kvstore", "update", ["dup", "2"])
    network.sim.run(until=25.0)
    outcomes = {process_a.value[1], process_b.value[1]}
    assert outcomes == {"committed", "invalid"}
    codes = {network.metrics.records[p.value[0]].validation_code
             for p in (process_a, process_b)}
    assert codes == {ValidationCode.VALID,
                     ValidationCode.MVCC_READ_CONFLICT}
