"""Tests for the chaincode stub and the example chaincodes."""

import pytest

from repro.chaincode import (
    ChaincodeError,
    ChaincodeRegistry,
    KVStoreChaincode,
    MoneyTransferChaincode,
    NoopChaincode,
    SmallbankChaincode,
)
from repro.chaincode.base import ChaincodeStub
from repro.common.types import KVWrite
from repro.runtime.costs import CostModel
from repro.statedb import LevelDBBackend


def new_state():
    return LevelDBBackend(CostModel())


def make_stub(state=None):
    # An empty backend is falsy (it has a length), so test for None.
    return ChaincodeStub(state if state is not None else new_state(),
                         tx_id="t1", creator="c")


def seeded_state(**kv):
    state = new_state()
    for key, value in kv.items():
        state.apply_write(KVWrite(key, value), version=(1, 0))
    return state


def test_stub_records_read_version():
    state = seeded_state(k=b"v")
    stub = make_stub(state)
    assert stub.get_state("k") == b"v"
    rwset = stub.build_rwset()
    assert rwset.reads[0].key == "k"
    assert rwset.reads[0].version == (1, 0)


def test_stub_read_of_absent_key_records_none_version():
    stub = make_stub()
    assert stub.get_state("missing") is None
    assert stub.build_rwset().reads[0].version is None


def test_stub_first_read_version_wins():
    state = seeded_state(k=b"v")
    stub = make_stub(state)
    stub.get_state("k")
    # A later write to state (impossible mid-simulation, but defensive)
    state.apply_write(KVWrite("k", b"v2"), version=(2, 0))
    stub.get_state("k")
    rwset = stub.build_rwset()
    assert len(rwset.reads) == 1
    assert rwset.reads[0].version == (1, 0)


def test_stub_read_your_writes():
    stub = make_stub()
    stub.put_state("k", b"new")
    assert stub.get_state("k") == b"new"
    # Reading a buffered write must not add a read record for it.
    assert stub.build_rwset().reads == ()


def test_stub_read_after_delete_sees_absent():
    state = seeded_state(k=b"v")
    stub = make_stub(state)
    stub.del_state("k")
    assert stub.get_state("k") is None


def test_stub_writes_do_not_touch_state():
    state = new_state()
    stub = make_stub(state)
    stub.put_state("k", b"v")
    assert state.get("k") is None


def test_stub_put_requires_bytes():
    with pytest.raises(ChaincodeError):
        make_stub().put_state("k", "not-bytes")


def test_stub_range_records_reads():
    state = seeded_state(a=b"1", b=b"2", c=b"3")
    stub = make_stub(state)
    pairs = stub.get_state_range("a", "c")
    assert [key for key, _ in pairs] == ["a", "b"]
    assert {read.key for read in stub.build_rwset().reads} == {"a", "b"}


def test_stub_range_sees_buffered_writes_and_deletes():
    state = seeded_state(a=b"1", b=b"2")
    stub = make_stub(state)
    stub.put_state("a", b"updated")
    stub.del_state("b")
    pairs = dict(stub.get_state_range("a", "z"))
    assert pairs == {"a": b"updated"}


def test_rwset_is_sorted_and_deterministic():
    stub = make_stub(seeded_state(b=b"2", a=b"1"))
    stub.get_state("b")
    stub.get_state("a")
    stub.put_state("z", b"1")
    stub.put_state("y", b"2")
    rwset = stub.build_rwset()
    assert [r.key for r in rwset.reads] == ["a", "b"]
    assert [w.key for w in rwset.writes] == ["y", "z"]


def test_noop_writes_unique_key():
    stub = make_stub()
    NoopChaincode().invoke(stub, "write", ["key-42", "x"])
    rwset = stub.build_rwset()
    assert rwset.reads == ()
    assert rwset.write_keys == ("key-42",)


def test_noop_rejects_unknown_function():
    with pytest.raises(ChaincodeError):
        NoopChaincode().invoke(make_stub(), "frobnicate", [])


def test_kvstore_put_get_roundtrip_via_commit():
    chaincode = KVStoreChaincode()
    state = new_state()
    stub = make_stub(state)
    chaincode.invoke(stub, "put", ["k", "hello"])
    state.apply_writes(stub.build_rwset().writes, version=(1, 0))
    stub2 = make_stub(state)
    assert chaincode.invoke(stub2, "get", ["k"]) == b"hello"


def test_kvstore_get_missing_fails():
    with pytest.raises(ChaincodeError):
        KVStoreChaincode().invoke(make_stub(), "get", ["nope"])


def test_kvstore_update_reads_then_writes():
    state = seeded_state(k=b"old")
    stub = make_stub(state)
    KVStoreChaincode().invoke(stub, "update", ["k", "new"])
    rwset = stub.build_rwset()
    assert rwset.read_keys == ("k",)
    assert rwset.write_keys == ("k",)


def test_kvstore_wrong_arity():
    with pytest.raises(ChaincodeError):
        KVStoreChaincode().invoke(make_stub(), "put", ["only-one"])


def test_money_transfer_moves_balance():
    state = seeded_state(alice=b"100", bob=b"50")
    stub = make_stub(state)
    MoneyTransferChaincode().invoke(stub, "transfer", ["alice", "bob", "30"])
    writes = {w.key: w.value for w in stub.build_rwset().writes}
    assert writes == {"alice": b"70", "bob": b"80"}


def test_money_transfer_insufficient_funds():
    state = seeded_state(alice=b"10", bob=b"0")
    with pytest.raises(ChaincodeError, match="insufficient"):
        MoneyTransferChaincode().invoke(
            make_stub(state), "transfer", ["alice", "bob", "30"])


def test_money_transfer_rejects_bad_amounts():
    state = seeded_state(alice=b"10", bob=b"0")
    chaincode = MoneyTransferChaincode()
    with pytest.raises(ChaincodeError):
        chaincode.invoke(make_stub(state), "transfer",
                         ["alice", "bob", "-5"])
    with pytest.raises(ChaincodeError):
        chaincode.invoke(make_stub(state), "transfer",
                         ["alice", "bob", "lots"])


def test_money_open_and_query():
    chaincode = MoneyTransferChaincode()
    state = new_state()
    stub = make_stub(state)
    chaincode.invoke(stub, "open", ["carol", "500"])
    state.apply_writes(stub.build_rwset().writes, version=(1, 0))
    assert chaincode.invoke(make_stub(state), "query", ["carol"]) == b"500"
    with pytest.raises(ChaincodeError):
        chaincode.invoke(make_stub(state), "open", ["carol", "1"])


def test_smallbank_send_payment():
    state = seeded_state(**{"checking:u1": b"100", "checking:u2": b"10"})
    stub = make_stub(state)
    SmallbankChaincode().invoke(stub, "send_payment", ["u1", "u2", "40"])
    writes = {w.key: w.value for w in stub.build_rwset().writes}
    assert writes["checking:u1"] == b"60"
    assert writes["checking:u2"] == b"50"


def test_smallbank_amalgamate():
    state = seeded_state(**{"checking:u": b"30", "savings:u": b"70"})
    stub = make_stub(state)
    SmallbankChaincode().invoke(stub, "amalgamate", ["u"])
    writes = {w.key: w.value for w in stub.build_rwset().writes}
    assert writes["savings:u"] == b"0"
    assert writes["checking:u"] == b"100"


def test_smallbank_overdraft_rejected():
    state = seeded_state(**{"checking:u": b"10"})
    with pytest.raises(ChaincodeError):
        SmallbankChaincode().invoke(make_stub(state), "write_check",
                                    ["u", "100"])


def test_registry_install_and_lookup():
    registry = ChaincodeRegistry()
    chaincode = KVStoreChaincode()
    registry.install(chaincode)
    assert registry.get("kvstore") is chaincode
    assert "kvstore" in registry
    assert registry.installed() == ["kvstore"]


def test_registry_rejects_duplicates_and_unknown():
    from repro.common.errors import ConfigurationError

    registry = ChaincodeRegistry()
    registry.install(KVStoreChaincode())
    with pytest.raises(ConfigurationError):
        registry.install(KVStoreChaincode())
    with pytest.raises(ConfigurationError):
        registry.get("missing")
