"""A sorted integer-keyed map built on ``bisect``.

STM channels index items by timestamp and constantly need ordered queries:
*latest*, *oldest*, *latest unseen*, *neighbours of a missing timestamp*, and
*range deletion below the GC horizon* (paper §4.1-4.2).  CPython has no
built-in sorted container, and the usual answer (``sortedcontainers``) is not
available offline, so this module provides the small slice of that interface
the kernel needs.

The implementation keeps a sorted list of keys next to a dict.  All lookups
are O(log n); insertion/deletion are O(n) in the worst case but the list is
append-mostly in the common case (timestamps usually arrive in order, and GC
deletes prefixes), for which both operations are amortized O(1)-ish.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator

__all__ = ["SortedIntMap"]


class SortedIntMap:
    """Mapping from int keys to values with ordered queries.

    Invariant: ``_keys`` is the sorted list of ``_data``'s keys.  The channel
    kernel's put / get / consume work both directly, keeping it, so that each
    runs in one Python frame.
    """

    __slots__ = ("_keys", "_data")

    def __init__(self):
        self._keys: list[int] = []
        self._data: dict[int, Any] = {}

    # -- basic mapping protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def __getitem__(self, key: int) -> Any:
        return self._data[key]

    def get(self, key: int, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __setitem__(self, key: int, value: Any) -> None:
        if key not in self._data:
            if self._keys and key > self._keys[-1]:
                self._keys.append(key)  # fast path: in-order insertion
            else:
                insort(self._keys, key)
        self._data[key] = value

    def __delitem__(self, key: int) -> None:
        del self._data[key]
        idx = bisect_left(self._keys, key)
        # idx is exact: key was present.
        del self._keys[idx]

    def pop(self, key: int, *default: Any) -> Any:
        if key in self._data:
            value = self._data[key]
            del self[key]
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def keys(self) -> list[int]:
        """Sorted list of keys (a copy; safe to mutate)."""
        return list(self._keys)

    def values(self) -> Iterator[Any]:
        return (self._data[k] for k in self._keys)

    def items(self) -> Iterator[tuple[int, Any]]:
        return ((k, self._data[k]) for k in self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}: {self._data[k]!r}" for k in self._keys[:8])
        more = ", ..." if len(self._keys) > 8 else ""
        return f"SortedIntMap({{{inner}{more}}})"

    # -- ordered queries ----------------------------------------------------
    def min_key(self) -> int | None:
        """Smallest key, or None when empty (the channel's *oldest* item)."""
        return self._keys[0] if self._keys else None

    def max_key(self) -> int | None:
        """Largest key, or None when empty (the channel's *latest* item)."""
        return self._keys[-1] if self._keys else None

    def floor_key(self, key: int) -> int | None:
        """Largest key <= ``key``, or None."""
        idx = bisect_right(self._keys, key)
        return self._keys[idx - 1] if idx else None

    def ceil_key(self, key: int) -> int | None:
        """Smallest key >= ``key``, or None."""
        idx = bisect_left(self._keys, key)
        return self._keys[idx] if idx < len(self._keys) else None

    def lower_key(self, key: int) -> int | None:
        """Largest key strictly < ``key``, or None."""
        idx = bisect_left(self._keys, key)
        return self._keys[idx - 1] if idx else None

    def higher_key(self, key: int) -> int | None:
        """Smallest key strictly > ``key``, or None."""
        idx = bisect_right(self._keys, key)
        return self._keys[idx] if idx < len(self._keys) else None

    def neighbours(self, key: int) -> tuple[int | None, int | None]:
        """Neighbouring present keys around a *missing* ``key``.

        This backs the ``timestamp_range`` result of a failed get (§4.1): the
        caller learns the closest available timestamps on either side.
        """
        return self.lower_key(key), self.higher_key(key)

    def keys_below(self, bound: int) -> list[int]:
        """All keys strictly less than ``bound`` (ascending)."""
        return self._keys[: bisect_left(self._keys, bound)]

    def keys_at_or_above(self, bound: int) -> list[int]:
        """All keys >= ``bound`` (ascending)."""
        return self._keys[bisect_left(self._keys, bound) :]

    def keys_between(self, lo: int, hi: int) -> list[int]:
        """All keys in ``[lo, hi)`` (ascending); empty when ``hi <= lo``."""
        return self._keys[bisect_left(self._keys, lo) : bisect_left(self._keys, hi)]

    def count_between(self, lo: int, hi: int) -> int:
        """Number of keys in ``[lo, hi)``, without building the list."""
        return max(0, bisect_left(self._keys, hi) - bisect_left(self._keys, lo))

    def pop_below(self, bound: int) -> list[tuple[int, Any]]:
        """Remove and return all ``(key, value)`` pairs with key < ``bound``.

        Used by garbage collection: everything below the GC horizon dies in
        one O(k + log n) sweep.
        """
        cut = bisect_left(self._keys, bound)
        dead_keys = self._keys[:cut]
        del self._keys[:cut]
        return [(k, self._data.pop(k)) for k in dead_keys]
