"""Tests for the history database."""

from repro.ledger.history import HistoryDB, HistoryEntry


def write(key, block, tx, tx_id="t", is_delete=False):
    """One committed write as a commit plan builds it."""
    return (key, (b"v", (block, tx)), is_delete, tx_id)


def test_empty_history():
    history = HistoryDB()
    assert history.for_key("k") == []
    assert history.last_write("k") is None
    assert len(history) == 0


def test_record_and_query_in_order():
    history = HistoryDB()
    history.record(1, (write("k", 1, 0, "t1"),))
    history.record(2, (write("k", 2, 3, "t2"),))
    entries = history.for_key("k")
    assert [e.tx_id for e in entries] == ["t1", "t2"]
    assert history.last_write("k").tx_id == "t2"


def test_keys_are_independent():
    history = HistoryDB()
    history.record(1, (write("a", 1, 0, "t1"), write("b", 1, 1, "t2")))
    assert len(history) == 2
    assert history.last_write("a").tx_id == "t1"
    assert history.last_write("b").tx_id == "t2"


def test_for_key_returns_copy():
    history = HistoryDB()
    history.record(1, (write("k", 1, 0),))
    snapshot = history.for_key("k")
    snapshot.append(HistoryEntry(9, 9, "t", False))
    assert len(history.for_key("k")) == 1


def test_delete_entries_recorded():
    history = HistoryDB()
    history.record(1, (write("k", 1, 0, "t1", is_delete=True),))
    assert history.last_write("k").is_delete
