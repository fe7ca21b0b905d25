"""Set-associative write-back / write-allocate cache model with LRU.

Only timing and statistics are modelled — data always lives in the backing
store (a standard simplification for trace-driven simulators; gem5's classic
memory system does the same when run in atomic mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigError(f"{self.name}: cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"line*assoc ({self.line_bytes}*{self.associativity})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # each set is an LRU-ordered list of (tag, dirty) — index 0 is LRU
        self._sets: list[list[list]] = [[] for _ in range(config.num_sets)]

    # ------------------------------------------------------------------
    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        index, tag = self._index_tag(addr)
        return any(entry[0] == tag for entry in self._sets[index])

    def access(self, addr: int, is_write: bool) -> bool:
        """Access one address; returns True on hit.

        On a miss the line is allocated (write-allocate) and the LRU victim
        evicted, counting a writeback if it was dirty.
        """
        self.stats.accesses += 1
        index, tag = self._index_tag(addr)
        entries = self._sets[index]
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                entries.append(entries.pop(i))  # move to MRU
                if is_write:
                    entry[1] = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        if len(entries) >= self.config.associativity:
            victim = entries.pop(0)
            self.stats.evictions += 1
            if victim[1]:
                self.stats.writebacks += 1
        entries.append([tag, is_write])
        return False

    def flush(self) -> None:
        """Invalidate every line (keeps statistics)."""
        for entries in self._sets:
            entries.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(entries) for entries in self._sets)
