"""Content-addressed on-disk cache of campaign run results.

A cache key is the SHA-256 of everything that determines a run's outcome:
the lowered kernel (the exact assembly the core executes), the input spec
(workload id, scale, seed), the CPU / DSA / energy configurations, and a
fingerprint of the simulator's own source code.  Unchanged runs are served
instantly; touching any input — including the simulator itself — misses
cleanly instead of serving stale results.

Integrity: every committed entry embeds a SHA-256 checksum of its own
payload, verified on load.  Corrupted or truncated entries are *quarantined*
to ``corrupt/`` under the cache root (never silently deleted, so operators
can inspect what went wrong) and treated as misses: the campaign falls back
to re-running the simulation.  Writes are write-then-rename with an fsync
of both the temp file and the directory, so a host power-loss cannot leave
a zero-length committed entry — the checksum covers whatever torn-write
window remains.

Every degradation event (quarantine, stale drop) is counted on
:class:`CacheStats` so callers can *report* graceful degradation instead of
leaving it invisible.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

#: bump when the serialized RunResult layout changes incompatibly
#: (v2: entries embed an ``integrity`` checksum verified on load)
CACHE_VERSION = 2

#: environment override for the cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: subdirectory of the cache root holding quarantined (damaged) entries
CORRUPT_DIR = "corrupt"

#: payload key carrying the embedded checksum
INTEGRITY_FIELD = "integrity"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache/results`` under the
    working directory (kept project-local on purpose, like .pytest_cache)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(".repro-cache") / "results"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Part of every cache key, so editing the simulator invalidates all
    previously cached results without any manual cache management.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def content_key(parts: dict) -> str:
    """Deterministic key from a dict of run-identity components."""
    canonical = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_checksum(payload: dict) -> str:
    """Checksum of a payload's canonical JSON, excluding the checksum field."""
    body = {k: v for k, v in payload.items() if k != INTEGRITY_FIELD}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    """Degradation and traffic counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_quarantined: int = 0   # damaged entries moved to corrupt/
    stale_dropped: int = 0         # version-mismatch entries removed

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_quarantined": self.corrupt_quarantined,
            "stale_dropped": self.stale_dropped,
        }

    def degradation(self) -> dict:
        """The graceful-degradation subset operators care about."""
        return {
            "corrupt_quarantined": self.corrupt_quarantined,
            "stale_dropped": self.stale_dropped,
        }


class ResultDiskCache:
    """Maps content keys to JSON payloads under one directory."""

    def __init__(self, root: Path | str | None = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / CORRUPT_DIR

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside instead of deleting the evidence."""
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            target = self.corrupt_dir / path.name
            n = 0
            while target.exists():
                n += 1
                target = self.corrupt_dir / f"{path.stem}.{n}{path.suffix}"
            os.replace(path, target)
        except OSError:
            path.unlink(missing_ok=True)  # quarantine best-effort, miss regardless
        self.stats.corrupt_quarantined += 1

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    def load(self, key: str) -> dict | None:
        """The cached payload, or ``None`` on miss *or* corruption."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            # a half-written or damaged entry must behave like a miss
            self._quarantine(path)
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("cache_version") != CACHE_VERSION:
            # an old layout, not damage: drop it so the slot recomputes cleanly
            path.unlink(missing_ok=True)
            self.stats.stale_dropped += 1
            self.stats.misses += 1
            return None
        if payload.get(INTEGRITY_FIELD) != payload_checksum(payload):
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> None:
        if not self.enabled:
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"cache_version": CACHE_VERSION, **payload}
        payload[INTEGRITY_FIELD] = payload_checksum(payload)
        # write-then-rename so a crashed writer never leaves a torn entry;
        # fsync the file *and* the directory so a host power-loss cannot
        # leave a committed-but-empty entry behind the rename
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._fsync_dir(path.parent)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self.stats.stores += 1

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry (including quarantined ones and orphaned temp
        files); returns how many files were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for pattern in ("*.json", "*.tmp"):
            for path in self.root.rglob(pattern):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def prune_tmp(self) -> int:
        """Remove orphaned ``*.tmp`` files left behind by crashed writers.

        The write path is mkstemp-then-rename, so a worker killed mid-store
        leaves a ``*.tmp`` beside the entries.  They are harmless to reads
        but accumulate forever; the campaign runner prunes them on startup.
        """
        removed = 0
        if not self.enabled or not self.root.exists():
            return removed
        for path in self.root.rglob("*.tmp"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
