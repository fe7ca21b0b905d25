"""The DSA's private storage structures.

* **DSA cache** (8 KB): verdicts + SIMD templates for loops already
  analyzed, indexed by loop ID (the PC of the loop's first instruction);
* **Verification cache** (1 KB): the data-memory addresses observed during
  the Data Collection iteration — its capacity bounds how many accesses per
  iteration the DSA can track;
* **Array maps** (4 x 128 bit): result registers reserved for conditional
  loop speculation; unused NEON registers may extend them (Section 4.6.4.3).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from .config import DSAConfig


@dataclass
class CacheEntryStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class DSACache:
    """LRU map from loop ID to the loop's cached verdict/template."""

    def __init__(self, config: DSAConfig):
        self.capacity = max(1, config.dsa_cache_entries)
        self.stats = CacheEntryStats()
        self._entries: OrderedDict[int, Any] = OrderedDict()

    def lookup(self, loop_id: int) -> Any | None:
        if loop_id in self._entries:
            self._entries.move_to_end(loop_id)
            self.stats.hits += 1
            return self._entries[loop_id]
        self.stats.misses += 1
        return None

    def insert(self, loop_id: int, entry: Any) -> None:
        if loop_id in self._entries:
            self._entries.move_to_end(loop_id)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[loop_id] = entry

    def invalidate(self, loop_id: int) -> None:
        self._entries.pop(loop_id, None)

    def __contains__(self, loop_id: int) -> bool:
        return loop_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class VerificationCache:
    """Bounded store of (instruction PC -> data address) observations.

    One entry per *static* memory instruction in the loop body; a loop whose
    body performs more distinct accesses than fit is beyond the DSA's reach
    and is classified non-vectorizable (capacity pressure is real hardware
    behaviour, and tests exercise it).
    """

    def __init__(self, config: DSAConfig):
        self.capacity = max(1, config.verification_cache_entries)
        self.stats = CacheEntryStats()
        self._addrs: dict[int, list[int]] = {}
        self.overflowed = False

    def reset(self) -> None:
        self._addrs.clear()
        self.overflowed = False

    def record(self, pc: int, addr: int) -> bool:
        """Record one access; returns False on capacity overflow."""
        if pc not in self._addrs:
            if len(self._addrs) >= self.capacity:
                self.overflowed = True
                return False
            self._addrs[pc] = []
        self._addrs[pc].append(addr)
        self.stats.hits += 1
        return True

    def addresses(self, pc: int) -> list[int]:
        return self._addrs.get(pc, [])

    def pcs(self) -> list[int]:
        return list(self._addrs)

    def __len__(self) -> int:
        return len(self._addrs)


@dataclass
class ArrayMaps:
    """Result-register budget for conditional-loop speculation."""

    slots: int
    spare_neon_regs: int
    in_use: int = 0
    peak: int = 0

    def can_allocate(self, count: int) -> bool:
        return self.in_use + count <= self.slots + self.spare_neon_regs

    def allocate(self, count: int) -> bool:
        if not self.can_allocate(count):
            return False
        self.in_use += count
        self.peak = max(self.peak, self.in_use)
        return True

    def release_all(self) -> None:
        self.in_use = 0
