"""Differential parity: the scalable backend against NEON.

The scalable engine at VL=128 is architecturally the same machine as the
NEON engine, so every microkernel must produce a byte-identical RunResult
on it (``tests/test_golden_runs.py`` checks its ``scalable128`` variant
against the golden run matrix).  At wider VLs the DSA's
bursts are timing-only (the scalar core computes all architected results),
so only the timing and energy channels may move; the architected memory
image, register file, instruction counts and golden outputs must not.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.systems.campaign import CampaignRunner, RunSpec, build_workload, execute_spec
from repro.systems.setups import run_system
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS

MICRO_KINDS = sorted(LOOP_TYPE_MICROKERNELS)
STATIC_SYSTEMS = ("arm_original", "neon_autovec", "neon_handvec")

#: RunResult channels that legitimately move with the vector width
#: (wider bursts change cycle counts, cache traffic, DSA counters and the
#: energy they imply); everything else must match across backends exactly
TIMING_KEYS = frozenset(
    {"cycles", "seconds", "energy", "timing_stats", "dsa_stats", "hierarchy_stats"}
)


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def stripped(d: dict) -> dict:
    """Drop the backend identity keys, which are the only allowed delta
    between a NEON record and a scalable@128 record."""
    d = dict(d)
    d.pop("backend", None)
    d.pop("vl", None)
    return d


_memo: dict = {}


def result_dict(kind: str, system: str = "neon_dsa",
                backend: str = "neon", vl: int = 128) -> dict:
    key = (kind, system, backend, vl)
    if key not in _memo:
        spec = RunSpec(f"micro:{kind}", system, seed=3, backend=backend, vl=vl)
        _memo[key] = execute_spec(spec).to_dict()
    return _memo[key]


class TestScalable128Identity:
    """scalable@128 == NEON, bit for bit, on every microkernel × system."""

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_dsa_runresult_identical(self, kind):
        neon = result_dict(kind)
        scalable = result_dict(kind, backend="scalable", vl=128)
        assert scalable["backend"] == "scalable" and scalable["vl"] == 128
        assert canonical(stripped(scalable)) == canonical(neon)

    @pytest.mark.parametrize("system", STATIC_SYSTEMS)
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_static_systems_identical(self, kind, system):
        """The scalar and statically vectorized binaries see the same
        machine whichever 128-bit backend executes their vector ops."""
        neon = result_dict(kind, system)
        scalable = result_dict(kind, system, backend="scalable", vl=128)
        assert canonical(stripped(scalable)) == canonical(neon)


class TestWiderVLTimingOnly:
    """At VL>128 only the timing/energy channels may move."""

    @pytest.mark.parametrize("vl", [256, 512])
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_architected_payload_identical(self, kind, vl):
        neon = result_dict(kind)
        wide = result_dict(kind, backend="scalable", vl=vl)
        assert wide["backend"] == "scalable" and wide["vl"] == vl
        for key in neon:
            if key in TIMING_KEYS:
                continue
            assert wide[key] == neon[key], f"{key} moved at VL={vl}"

    # long streaming loops, where each wider burst covers strictly more
    # iterations; tail-dominated classes (e.g. partial) may legitimately
    # regress at wide VL because fewer full-width bursts fit the trip count
    STREAMING_KINDS = ("count", "conditional", "dynamic_range")

    @pytest.mark.parametrize("kind", STREAMING_KINDS)
    def test_wider_vectors_speed_up_streaming_loops(self, kind):
        neon = result_dict(kind)
        for vl in (256, 512):
            wide = result_dict(kind, backend="scalable", vl=vl)
            assert wide["cycles"] <= neon["cycles"]

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_architected_state_identical_at_512(self, kind):
        """Full memory image, register file and PC — not just the checked
        output arrays — must match NEON after a VL=512 DSA run."""

        def state(backend, vl):
            spec = RunSpec(f"micro:{kind}", "neon_dsa", backend=backend, vl=vl)
            result = run_system("neon_dsa", build_workload(spec), backend=backend, vl=vl)
            core = result.run.core
            return core.memory.snapshot(), tuple(core.regs), core.pc

        assert state("scalable", 512) == state("neon", 128)


class TestBackendSelectionRules:
    def test_neon_is_fixed_at_128(self):
        with pytest.raises(ConfigError, match="fixed at VL=128"):
            RunSpec("micro:count", "neon_dsa", backend="neon", vl=256)

    @pytest.mark.parametrize("system", ["neon_autovec", "neon_handvec"])
    def test_static_binaries_reject_wide_vl(self, system):
        with pytest.raises(ConfigError, match="static 128-bit"):
            RunSpec("micro:count", system, backend="scalable", vl=256)
        with pytest.raises(ConfigError, match="static 128-bit"):
            run_system(system, build_workload(RunSpec("micro:count", system)),
                       backend="scalable", vl=256)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            RunSpec("micro:count", "neon_dsa", backend="avx")


class TestCacheKeySeparation:
    """A scalable sweep must never shadow or evict clean NEON results."""

    def test_backend_and_vl_partition_the_cache(self):
        runner = CampaignRunner(use_cache=False)
        keys = {
            runner.cache_key(RunSpec("micro:count", "neon_dsa")),
            runner.cache_key(
                RunSpec("micro:count", "neon_dsa", backend="scalable", vl=128)
            ),
            runner.cache_key(
                RunSpec("micro:count", "neon_dsa", backend="scalable", vl=256)
            ),
            runner.cache_key(
                RunSpec("micro:count", "neon_dsa", backend="scalable", vl=512)
            ),
        }
        assert len(keys) == 4

    def test_default_spec_serialization_unchanged(self):
        """Pre-backend records must round-trip and hash as before."""
        spec = RunSpec("micro:count", "neon_dsa")
        d = spec.to_dict()
        assert "backend" not in d and "vl" not in d
        assert RunSpec.from_dict(d) == spec

    def test_scalable_spec_round_trips(self):
        spec = RunSpec("micro:count", "neon_dsa", backend="scalable", vl=512)
        d = spec.to_dict()
        assert d["backend"] == "scalable" and d["vl"] == 512
        assert RunSpec.from_dict(d) == spec
        assert spec.label.endswith("@scalable512")
