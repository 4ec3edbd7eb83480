"""Log-structured result store: bitwise idempotency, counters, recovery."""

from __future__ import annotations

import builtins
import os

import pytest

from repro.serve.store import ResultStore

DIGEST = "sha256:0123456789abcdef"
OTHER = "sha256:fedcba9876543210"


@pytest.fixture()
def open_store(tmp_path):
    """Open (or reopen) the store under ``tmp_path``; all closed at teardown."""
    opened = []

    def _open() -> ResultStore:
        store = ResultStore(str(tmp_path))
        opened.append(store)
        return store

    yield _open
    for store in opened:
        store.close()


def _log(tmp_path) -> str:
    return os.path.join(str(tmp_path), "results.log")


def test_miss_then_bitwise_hit(open_store):
    store = open_store()
    assert store.get(DIGEST) is None
    payload = b'{"digest":"sha256:0123456789abcdef","result":{"cost":0.25}}'
    store.put(DIGEST, payload)
    assert store.get(DIGEST) == payload  # exact bytes, not a re-encode
    assert store.hits == 1 and store.misses == 1


def test_put_is_idempotent_and_atomic(open_store, tmp_path):
    store = open_store()
    store.put(DIGEST, b"first")
    size = os.path.getsize(_log(tmp_path))
    store.put(DIGEST, b"first")
    assert store.get(DIGEST) == b"first"
    assert len(store) == 1
    # One file, and the repeated put appended nothing to it.
    assert os.listdir(tmp_path) == ["results.log"]
    assert os.path.getsize(_log(tmp_path)) == size


def test_contains_and_len(open_store):
    store = open_store()
    assert DIGEST not in store and len(store) == 0
    store.put(DIGEST, b"x")
    assert DIGEST in store and len(store) == 1


def test_reopen_sees_persisted_results(open_store):
    open_store().put(DIGEST, b"persisted")
    fresh = open_store()
    assert fresh.get(DIGEST) == b"persisted"


def test_torn_final_record_is_dropped_and_truncated(open_store, tmp_path):
    store = open_store()
    store.put(DIGEST, b"whole")
    whole = os.path.getsize(_log(tmp_path))
    store.put(OTHER, b"torn by a crash")
    store.close()
    with open(_log(tmp_path), "r+b") as f:
        f.truncate(os.path.getsize(_log(tmp_path)) - 3)

    with pytest.warns(RuntimeWarning, match="truncated"):
        reopened = open_store()
    assert os.path.getsize(_log(tmp_path)) == whole
    assert reopened.get(DIGEST) == b"whole"
    assert OTHER not in reopened
    # Appends follow the last whole record and survive another reopen.
    reopened.put(OTHER, b"again")
    reopened.close()
    again = open_store()
    assert again.get(DIGEST) == b"whole"
    assert again.get(OTHER) == b"again"


def test_crc_mismatch_ends_the_load_at_that_record(open_store, tmp_path):
    store = open_store()
    store.put(DIGEST, b"good")
    whole = os.path.getsize(_log(tmp_path))
    store.put(OTHER, b"flipped")
    store.put("sha256:after", b"unreachable")
    store.close()
    with open(_log(tmp_path), "r+b") as f:
        data = bytearray(f.read())
        data[data.index(b"flipped")] ^= 0x01
        f.seek(0)
        f.write(data)

    with pytest.warns(RuntimeWarning):
        reopened = open_store()
    assert len(reopened) == 1 and reopened.get(DIGEST) == b"good"
    assert OTHER not in reopened and "sha256:after" not in reopened
    assert os.path.getsize(_log(tmp_path)) == whole


def test_duplicate_digest_keeps_the_first_record(open_store):
    # Two stores on one log, as two processes would have: neither knows
    # the other's record, so the digest is appended twice.
    a, b = open_store(), open_store()
    a.put(DIGEST, b"first")
    b.put(DIGEST, b"second")
    # Each store indexes where its own write landed, not a running count.
    assert a.get(DIGEST) == b"first"
    assert b.get(DIGEST) == b"second"
    assert open_store().get(DIGEST) == b"first"


def test_get_and_repeated_put_open_no_file(open_store, monkeypatch):
    store = open_store()
    store.put(DIGEST, b"cached")

    def refuse(*args, **kwargs):
        raise AssertionError(f"file opened on the request path: {args!r}")

    monkeypatch.setattr(os, "open", refuse)
    monkeypatch.setattr(builtins, "open", refuse)
    assert store.get(DIGEST) == b"cached"
    assert store.get(OTHER) is None
    store.put(DIGEST, b"cached")
    store.put(OTHER, b"new")
    assert store.get(OTHER) == b"new"
