"""The one install helper of the profiler, registry, watchdog and recorder.

Reads of :attr:`Slot.current` take no lock (``span()`` and
``get_registry()`` run in every hot loop); installs take one module
lock.  A scoped install nests and, on exit, restores its predecessor
only if its own value is still installed, so a stale exit never
clobbers a newer install.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

_LOCK = threading.Lock()


class Slot:
    """The installed value of one channel.  An ``optional`` slot holds
    ``None`` while the channel is off and installs a falsy value (a null
    profiler or recorder) as ``None``; the registry slot is not optional.
    """

    __slots__ = ("current", "_optional")

    def __init__(self, current: Any = None, optional: bool = True) -> None:
        self.current = current
        self._optional = optional

    def _installable(self, value: Any) -> Any:
        return None if self._optional and not value else value

    def set(self, value: Any) -> Any:
        """Install ``value``; returns the previously installed one."""
        value = self._installable(value)
        with _LOCK:
            previous, self.current = self.current, value
        return previous

    @contextmanager
    def scoped(self, value: Any) -> Iterator[Any]:
        """Install ``value`` for a block; yields it."""
        installed = self._installable(value)
        previous = self.set(installed)
        try:
            yield value
        finally:
            with _LOCK:
                if self.current is installed:
                    self.current = previous
