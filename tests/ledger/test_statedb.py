"""Tests for the versioned world state held by a state backend."""

from repro.common.types import KVWrite
from repro.runtime.costs import CostModel
from repro.statedb import LevelDBBackend


def new_state() -> LevelDBBackend:
    return LevelDBBackend(CostModel())


def test_get_absent_key_is_none():
    state = new_state()
    assert state.get("missing") is None
    assert state.get_version("missing") is None


def test_apply_write_sets_value_and_version():
    state = new_state()
    state.apply_write(KVWrite("k", b"v"), version=(3, 7))
    entry = state.get("k")
    assert entry.value == b"v"
    assert entry.version == (3, 7)
    assert state.get_version("k") == (3, 7)


def test_overwrite_bumps_version():
    state = new_state()
    state.apply_write(KVWrite("k", b"v1"), version=(1, 0))
    state.apply_write(KVWrite("k", b"v2"), version=(2, 5))
    assert state.get("k").value == b"v2"
    assert state.get_version("k") == (2, 5)


def test_delete_removes_key():
    state = new_state()
    state.apply_write(KVWrite("k", b"v"), version=(1, 0))
    state.apply_write(KVWrite("k", b"", is_delete=True), version=(2, 0))
    assert state.get("k") is None
    assert "k" not in state


def test_delete_of_absent_key_is_noop():
    state = new_state()
    state.apply_write(KVWrite("k", b"", is_delete=True), version=(1, 0))
    assert len(state) == 0


def test_apply_writes_batch():
    state = new_state()
    state.apply_writes([KVWrite("a", b"1"), KVWrite("b", b"2")],
                       version=(1, 0))
    assert len(state) == 2
    assert state.get("a").version == (1, 0)


def test_range_scan_half_open_sorted():
    state = new_state()
    for key in ["a", "b", "c", "d"]:
        state.apply_write(KVWrite(key, key.encode()), version=(1, 0))
    scanned = state.range_scan("b", "d")
    assert [key for key, _ in scanned] == ["b", "c"]


def test_range_scan_boundaries_are_start_inclusive_end_exclusive():
    state = new_state()
    for key in ["a", "b", "c", "d"]:
        state.apply_write(KVWrite(key, key.encode()), version=(1, 0))
    # Boundaries that are not present keys still bracket correctly.
    assert [k for k, _ in state.range_scan("aa", "cc")] == ["b", "c"]
    # An exact-match end key is excluded; an exact-match start included.
    assert [k for k, _ in state.range_scan("a", "a")] == []
    assert [k for k, _ in state.range_scan("d", "z")] == ["d"]
    assert state.range_scan("x", "z") == []


def test_range_scan_reflects_deletes():
    state = new_state()
    for key in ["a", "b", "c"]:
        state.apply_write(KVWrite(key, b"v"), version=(1, 0))
    state.apply_write(KVWrite("b", b"", is_delete=True), version=(2, 0))
    assert [k for k, _ in state.range_scan("a", "z")] == ["a", "c"]
    # Recreating the key restores it to the index exactly once.
    state.apply_write(KVWrite("b", b"v2"), version=(3, 0))
    assert state.keys() == ["a", "b", "c"]


def test_keys_sorted():
    state = new_state()
    for key in ["z", "a", "m"]:
        state.apply_write(KVWrite(key, b"v"), version=(1, 0))
    assert state.keys() == ["a", "m", "z"]


def test_contains_and_len():
    state = new_state()
    state.apply_write(KVWrite("k", b"v"), version=(1, 0))
    assert "k" in state
    assert len(state) == 1
