"""Tests for the versioned read cache (deterministic LRU)."""

from repro.statedb import ReadCache


def vv(value: bytes, version=(1, 0)):
    """A stored ``(value, version)`` entry, as the cache holds it."""
    return (value, version)


def test_insert_then_lookup():
    cache = ReadCache(capacity=4)
    cache.insert("k", vv(b"v"))
    assert "k" in cache
    assert cache.lookup("k") == (b"v", (1, 0))
    assert len(cache) == 1


def test_negative_entry_caches_known_absence():
    cache = ReadCache(capacity=4)
    cache.insert("missing", None)
    assert "missing" in cache
    assert cache.lookup("missing") is None


def test_eviction_drops_least_recently_used():
    cache = ReadCache(capacity=2)
    cache.insert("a", vv(b"1"))
    cache.insert("b", vv(b"2"))
    cache.lookup("a")          # bump "a" to most recent
    cache.insert("c", vv(b"3"))
    assert "b" not in cache    # the LRU entry went, not "a"
    assert "a" in cache and "c" in cache
    assert cache.evictions == 1


def test_update_if_present_writes_through_without_recency_bump():
    cache = ReadCache(capacity=2)
    cache.insert("a", vv(b"1"))
    cache.insert("b", vv(b"2"))
    cache.update_if_present("a", vv(b"new", (2, 0)))
    assert cache.lookup("a") == (b"new", (2, 0))
    # An update of an absent key does not populate the cache.
    cache.update_if_present("z", vv(b"ignored"))
    assert "z" not in cache


def test_update_if_present_records_deletion_as_negative_entry():
    cache = ReadCache(capacity=2)
    cache.insert("a", vv(b"1"))
    cache.update_if_present("a", None)
    assert "a" in cache
    assert cache.lookup("a") is None


def test_clear_resets_entries_but_keeps_eviction_counter():
    cache = ReadCache(capacity=1)
    cache.insert("a", vv(b"1"))
    cache.insert("b", vv(b"2"))
    assert cache.evictions == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.evictions == 1
