"""Disk-backed result store: one append-only log plus an in-memory index.

The store holds the *exact serialised response bytes* of each completed
request, so an idempotent re-submit replays the original payload
byte-for-byte — no re-serialisation, no float round-trip, no field
reordering.

Layout: every result is one record appended to ``<directory>/results.log``
(opened once, ``O_APPEND``)::

    <u32 digest length> <u32 payload length> <digest> <payload> <u32 CRC32>

with little-endian lengths and the CRC taken over everything before it.
Opening the store scans the log into a ``digest -> (offset, length)``
dict; the scan stops at the first record that is short or fails its CRC
(a write torn by a crash), warns, and truncates the log there, so later
appends follow the last whole record.  A digest recorded twice keeps its
first record: the digest is the content of the computation, so both
hold the same result.

On the request path :meth:`ResultStore.get` is a dict lookup plus one
``os.pread`` and :meth:`ResultStore.put` a single ``os.write`` — no file
is opened or created per request.  The index learns where a write landed
from the file offset after it (``lseek``), which stays right when another
process appends to the same log; such records show up when the store is
reopened.  There is no user-space buffer, so a completed ``put``
survives a crash of this process; nothing is fsynced, because the store
is a cache.
"""

from __future__ import annotations

import os
import struct
import warnings
import zlib
from typing import Dict, Optional, Tuple

__all__ = ["ResultStore"]

_HEAD = struct.Struct("<II")  # digest length, payload length
_CRC = struct.Struct("<I")


class ResultStore:
    """Digest-keyed payload store: an append-only log under one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.path = os.path.join(self.directory, "results.log")
        self.hits = 0
        self.misses = 0
        os.makedirs(self.directory, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                           0o644)
        self._index: Dict[str, Tuple[int, int]] = {}
        try:
            self._load()
        except BaseException:
            os.close(self._fd)
            raise

    def _load(self) -> None:
        with open(self.path, "rb") as f:
            log = memoryview(f.read())
        end = 0
        while end < len(log):
            start = end
            if len(log) - start < _HEAD.size:
                break
            n_digest, n_payload = _HEAD.unpack_from(log, start)
            offset = start + _HEAD.size + n_digest
            crc_at = offset + n_payload
            if crc_at + _CRC.size > len(log):
                break
            if zlib.crc32(log[start:crc_at]) != _CRC.unpack_from(log, crc_at)[0]:
                break
            digest = bytes(log[start + _HEAD.size:offset]).decode("utf-8")
            self._index.setdefault(digest, (offset, n_payload))
            end = crc_at + _CRC.size
        if end < len(log):
            warnings.warn(
                f"{self.path}: dropping {len(log) - end} bytes after the last "
                f"whole record (torn or corrupt); the log is truncated there",
                RuntimeWarning, stacklevel=3,
            )
            os.ftruncate(self._fd, end)

    def get(self, digest: str) -> Optional[bytes]:
        """The stored payload bytes, or ``None`` on a miss."""
        where = self._index.get(digest)
        if where is not None:
            offset, length = where
            payload = os.pread(self._fd, length, offset)
            if len(payload) == length:
                self.hits += 1
                return payload
            # Another process truncated the log under us: forget the entry.
            del self._index[digest]
        self.misses += 1
        return None

    def put(self, digest: str, payload: bytes) -> None:
        """Append ``payload`` under ``digest``; a known digest is kept as is."""
        if digest in self._index:
            return
        key = digest.encode("utf-8")
        body = _HEAD.pack(len(key), len(payload)) + key + payload
        record = body + _CRC.pack(zlib.crc32(body))
        written = os.write(self._fd, record)
        if written != len(record):
            raise OSError(f"{self.path}: short write ({written} of "
                          f"{len(record)} bytes)")
        end = os.lseek(self._fd, 0, os.SEEK_CUR)
        self._index[digest] = (end - _CRC.size - len(payload), len(payload))

    def close(self) -> None:
        """Close the log; the store is unusable afterwards.  Idempotent."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __contains__(self, digest: str) -> bool:
        return digest in self._index

    def __len__(self) -> int:
        return len(self._index)
