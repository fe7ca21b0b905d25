"""DSA configuration: storage sizes, inferred latencies, feature gates.

Storage matches the paper's Table 4 (8 KB DSA cache, 1 KB verification
cache, four 128-bit array maps).  The latency knobs are the ones the
methodology chapter says were "inferred" and charged on top of the parallel
detection: pipeline flush on NEON hand-off, cache/array-map accesses, and
the extra cross-iteration analyses of partial vectorization.

Feature gates reproduce the three evolution stages of the DSA across the
dissertation's articles:

* ``original`` (Article 1 / SBCCI): count, function and inner/outer loops;
* ``extended`` (Article 2 / SBESC): + conditional and dynamic-range loops;
* ``full``     (Article 3 / DATE):  + sentinel loops and partial
  vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass(frozen=True)
class DSAFeatures:
    """Which loop kinds this DSA build vectorizes."""

    count: bool = True
    function: bool = True
    nested: bool = True
    conditional: bool = True
    dynamic_range: bool = True
    sentinel: bool = True
    partial: bool = True

    @classmethod
    def original(cls) -> "DSAFeatures":
        return cls(conditional=False, dynamic_range=False, sentinel=False, partial=False)

    @classmethod
    def extended(cls) -> "DSAFeatures":
        return cls(sentinel=False, partial=False)

    @classmethod
    def full(cls) -> "DSAFeatures":
        return cls()


@dataclass(frozen=True)
class DSALatencies:
    """Cycle costs charged by the DSA on top of its parallel analysis."""

    pipeline_flush: int = 14       # drain the O3 pipeline before NEON hand-off
    dsa_cache_access: int = 1
    verification_cache_access: int = 1
    array_map_access: int = 1      # per mapped iteration of a conditional loop
    partial_reanalysis: int = 4    # extra CIDP pass per partial chunk
    speculative_select: int = 2    # end-of-loop result selection


@dataclass(frozen=True)
class DSAConfig:
    """Full configuration of one DSA instance."""

    dsa_cache_bytes: int = 8 * 1024
    dsa_cache_entry_bytes: int = 64
    verification_cache_bytes: int = 1024
    verification_entry_bytes: int = 8
    array_maps: int = 4
    spare_neon_regs: int = 8       # unused Q registers usable for speculation
    features: DSAFeatures = field(default_factory=DSAFeatures.full)
    latencies: DSALatencies = field(default_factory=DSALatencies)
    #: run the numpy functional-equivalence check on every vectorized loop
    verify_functional: bool = True
    #: smallest number of remaining iterations worth a NEON hand-off
    min_vector_iterations: int = 4
    #: leftover technique (Section 4.8): 'auto' picks overlapping for pure
    #: elementwise loops and single elements for read-modify-write streams;
    #: 'single_elements' / 'overlapping' force one (overlapping silently
    #: falls back to single elements when recomputation would be unsafe)
    leftover_policy: str = "auto"

    def __post_init__(self) -> None:
        if self.dsa_cache_bytes <= 0 or self.verification_cache_bytes <= 0:
            raise ConfigError("cache sizes must be positive")
        if self.array_maps < 0:
            raise ConfigError("array map count cannot be negative")
        if self.leftover_policy not in ("auto", "single_elements", "overlapping"):
            raise ConfigError(f"unknown leftover policy {self.leftover_policy!r}")

    @property
    def dsa_cache_entries(self) -> int:
        return self.dsa_cache_bytes // self.dsa_cache_entry_bytes

    @property
    def verification_cache_entries(self) -> int:
        return self.verification_cache_bytes // self.verification_entry_bytes


ORIGINAL_DSA_CONFIG = DSAConfig(features=DSAFeatures.original())
EXTENDED_DSA_CONFIG = DSAConfig(features=DSAFeatures.extended())
FULL_DSA_CONFIG = DSAConfig(features=DSAFeatures.full())
