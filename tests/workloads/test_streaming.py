"""Streaming byte-parallel workload family, end to end.

Four fronts, matching the paper kernels' own guarantees:

* goldens — every kernel reproduces its scalar reference on every system
  and DSA stage (the DSA transparency claim);
* the taxonomy edge — the sentinel scan in ``delim_scan`` is vectorized
  by the run-time DSA but untouchable for the static NEON compiler, the
  verdict the whole reproduction exists to show;
* identity — every execution tier (interp/compiled/covered) and
  both vector backends at VL=128 reproduce the golden run matrix
  (``tests/golden_runs.json``; ``tests/test_golden_runs.py`` checks the
  default config on both backends), guard mode under an injected fault plan
  is identical with covering on and off, and wider VLs move timing only;
* the coverage gate — every paper loop class is exercised by >= 2
  registered workloads, the verdict fails demonstrably when a streaming
  workload is removed, and a declared class the kernel does not contain
  is rejected.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.cpu.config import CPUConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import FaultSpec
from repro.systems.campaign import RunSpec, execute_spec
from repro.systems.setups import run_system
from repro.workloads import ALL_WORKLOADS, PAPER_WORKLOADS, load
from repro.workloads.coverage import (
    CoverageGate,
    evaluate_gate,
    gate_registry,
    infer_loop_classes,
    partial_distance,
)
from repro.workloads.streaming import STREAMING_WORKLOADS

from ..regen_golden_runs import assert_golden

STREAMING = sorted(STREAMING_WORKLOADS)

#: one config per rung of the execution-tier ladder; all three must
#: reproduce the golden matrix (the ladder is host-side only)
TIER_CONFIGS = {
    "interp": CPUConfig(compile_hot=False, covered_execution=False),
    "compiled": CPUConfig(covered_execution=False),
    "covered": CPUConfig(),
}

COVERED = CPUConfig(covered_execution=True)
UNCOVERED = CPUConfig(covered_execution=False)

#: RunResult channels that legitimately move with the vector width
TIMING_KEYS = frozenset(
    {"cycles", "seconds", "energy", "timing_stats", "dsa_stats", "hierarchy_stats"}
)


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def stripped(d: dict) -> dict:
    d = dict(d)
    d.pop("backend", None)
    d.pop("vl", None)
    return d


_memo: dict = {}


def result_dict(name: str, system: str = "neon_dsa",
                backend: str = "neon", vl: int = 128) -> dict:
    key = (name, system, backend, vl)
    if key not in _memo:
        spec = RunSpec(name, system, seed=3, backend=backend, vl=vl)
        _memo[key] = execute_spec(spec).to_dict()
    return _memo[key]


# ---------------------------------------------------------------------------
# goldens on every system
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", STREAMING)
class TestGoldenOnEachSystem:
    def test_arm_original(self, name):
        run_system("arm_original", load(name))  # golden check is built in

    def test_neon_autovec(self, name):
        run_system("neon_autovec", load(name))

    def test_neon_handvec(self, name):
        run_system("neon_handvec", load(name))

    def test_neon_dsa_all_stages(self, name):
        for stage in ("original", "extended", "full"):
            run_system("neon_dsa", load(name), dsa_stage=stage)

    def test_bench_scale_golden(self, name):
        run_system("neon_dsa", load(name, "bench"))


# ---------------------------------------------------------------------------
# the taxonomy edge the family exists to exercise
# ---------------------------------------------------------------------------
class TestStreamingVectorizationProfile:
    def test_delim_scan_sentinel_only_reachable_by_dsa(self):
        """The acceptance criterion: the sentinel scan is a verdict the
        static NEON path cannot reach — the autovectorizer claims nothing
        in delim_scan, the DSA vectorizes all three loop classes."""
        wl = load("delim_scan")
        auto = run_system("neon_autovec", wl)
        assert auto.lowered.vectorized_loops == []
        dsa = run_system("neon_dsa", wl, dsa_stage="full")
        assert dsa.dsa_stats.vectorized_invocations["sentinel"] >= 1
        assert dsa.dsa_stats.vectorized_invocations["conditional"] >= 1
        assert dsa.dsa_stats.vectorized_invocations["dynamic_range"] >= 1
        base = run_system("arm_original", wl)
        assert dsa.cycles < base.cycles

    def test_utf8_carried_state_stays_scalar(self):
        """The carried continuation state serializes the dispatch loop for
        everyone — the honest negative result in the verdict table."""
        wl = load("utf8_validate")
        assert run_system("neon_autovec", wl).lowered.vectorized_loops == []
        dsa = run_system("neon_dsa", wl)
        assert sum(dsa.dsa_stats.vectorized_invocations.values()) == 0

    def test_base64_gathers_defeat_the_template(self):
        """Function-class loop, but its table-lookup gathers have no affine
        address stream: the DSA renders a non-vectorizable verdict."""
        dsa = run_system("neon_dsa", load("base64_decode"))
        assert dsa.dsa_stats.verdicts.get("non_vectorizable", 0) >= 1
        assert sum(dsa.dsa_stats.vectorized_invocations.values()) == 0

    def test_stride_histogram_partial_pass_vectorizes(self):
        """The gather/scatter stage stays scalar; the offset-accumulate
        smoothing pass is the partial class the DSA does claim."""
        dsa = run_system("neon_dsa", load("stride_histogram"))
        assert dsa.dsa_stats.verdicts.get("non_vectorizable", 0) >= 1
        assert dsa.dsa_stats.vectorized_invocations.get("partial", 0) >= 1


# ---------------------------------------------------------------------------
# identity: tiers, backends, faults, goldens
# ---------------------------------------------------------------------------
class TestTierIdentity:
    @pytest.mark.parametrize("name", STREAMING)
    def test_all_tiers_byte_identical(self, name):
        for config in TIER_CONFIGS.values():
            assert_golden(RunSpec(name, "neon_dsa", seed=3), config)

    @pytest.mark.parametrize("name", STREAMING)
    def test_scalar_system_tiers_identical(self, name):
        for tier in ("interp", "covered"):
            assert_golden(RunSpec(name, "arm_original", seed=3), TIER_CONFIGS[tier])


class TestGuardedFaultIdentity:
    @pytest.mark.parametrize("name", STREAMING)
    def test_lane_faults_guarded(self, name):
        plan = FaultPlan(faults=[FaultSpec(kind="lane", match="*")], seed=11)
        spec = RunSpec(name, "neon_dsa", seed=3)
        covered = canonical(
            execute_spec(spec, cpu_config=COVERED, guard=True, plan=plan).to_dict()
        )
        uncovered = canonical(
            execute_spec(spec, cpu_config=UNCOVERED, guard=True, plan=plan).to_dict()
        )
        assert covered == uncovered


class TestBackendParity:
    @pytest.mark.parametrize("name", STREAMING)
    def test_scalable_128_identical_to_neon(self, name):
        neon = result_dict(name)
        scalable = result_dict(name, backend="scalable", vl=128)
        assert scalable["backend"] == "scalable" and scalable["vl"] == 128
        assert canonical(stripped(scalable)) == canonical(neon)

    @pytest.mark.parametrize("vl", [256, 512])
    @pytest.mark.parametrize("name", STREAMING)
    def test_wider_vl_timing_only(self, name, vl):
        neon = result_dict(name)
        wide = result_dict(name, backend="scalable", vl=vl)
        for key in neon:
            if key in TIMING_KEYS:
                continue
            assert wide[key] == neon[key], f"{key} moved at VL={vl}"


# ---------------------------------------------------------------------------
# registry + builder validation (satellite: uniform config errors)
# ---------------------------------------------------------------------------
class TestRegistryAndValidation:
    def test_registries_disjoint_and_complete(self):
        assert set(STREAMING_WORKLOADS) == {
            "delim_scan", "utf8_validate", "base64_decode", "stride_histogram"
        }
        assert not set(STREAMING_WORKLOADS) & set(PAPER_WORKLOADS)
        assert set(ALL_WORKLOADS) == set(PAPER_WORKLOADS) | set(STREAMING_WORKLOADS)

    @pytest.mark.parametrize("name", STREAMING)
    def test_bad_scale_raises_config_error(self, name):
        with pytest.raises(ConfigError):
            STREAMING_WORKLOADS[name]("gigantic")

    @pytest.mark.parametrize("name", STREAMING)
    def test_negative_seed_raises_config_error(self, name):
        with pytest.raises(ConfigError):
            STREAMING_WORKLOADS[name]("test", seed=-1)

    def test_paper_builder_negative_seed(self):
        with pytest.raises(ConfigError):
            load("bitcount", seed=-7)

    def test_micro_builder_bad_size(self):
        from repro.workloads.synthetic import vecsum

        with pytest.raises(ConfigError):
            vecsum(0)
        with pytest.raises(ConfigError):
            vecsum(-4)

    def test_runspec_negative_seed(self):
        with pytest.raises(ConfigError):
            RunSpec("delim_scan", "neon_dsa", seed=-1)

    def test_seed_override_changes_inputs(self):
        a = load("delim_scan", seed=101).fresh_args()["src"]
        b = load("delim_scan", seed=102).fresh_args()["src"]
        assert (a != b).any()


# ---------------------------------------------------------------------------
# the coverage gate
# ---------------------------------------------------------------------------
class TestCoverageGate:
    def test_full_registry_passes(self):
        gate = evaluate_gate()
        assert gate.passed
        assert all(row.count >= 2 for row in gate.rows)

    @pytest.mark.parametrize("victim", ["base64_decode", "stride_histogram"])
    def test_removing_a_streaming_workload_fails(self, victim):
        registry = gate_registry()
        del registry[victim]
        gate = CoverageGate.from_workloads(registry)
        assert not gate.passed
        short = [row.loop_class for row in gate.rows if row.deficit]
        expected = {"base64_decode": "function", "stride_histogram": "partial"}
        assert expected[victim] in short

    def test_declared_class_must_exist_in_kernel(self):
        from dataclasses import replace

        liar = replace(load("rgb_gray"), loop_classes=("sentinel",))
        with pytest.raises(ConfigError):
            CoverageGate.from_workloads({"rgb_gray": liar})

    def test_declarations_match_inference_everywhere(self):
        for name, wl in gate_registry().items():
            inferred = infer_loop_classes(wl.kernel)
            assert set(wl.loop_classes) <= set(inferred), name

    def test_partial_distance_refinement(self):
        from repro.compiler.analysis import kernel_loops
        from repro.workloads.synthetic import offset_accumulate

        loops = kernel_loops(load("stride_histogram").kernel)
        assert partial_distance(loops[0], load("stride_histogram").kernel) is None
        assert partial_distance(loops[1], load("stride_histogram").kernel) == 16
        micro = offset_accumulate()
        assert partial_distance(kernel_loops(micro.kernel)[0], micro.kernel) == 24

    def test_to_dict_shape(self):
        d = evaluate_gate().to_dict()
        assert d["gate_passed"] is True
        assert d["required"] == 2
        classes = {row["loop_class"]: row for row in d["classes"]}
        assert set(classes) == {
            "count", "function", "conditional", "sentinel",
            "dynamic_range", "partial", "non_vectorizable",
        }
        assert all(row["deficit"] == 0 for row in classes.values())


class TestGateCLI:
    def test_stats_gate_passes(self, capsys):
        assert cli_main(["stats", "--gate"]) == 0
        assert "coverage gate: PASS" in capsys.readouterr().out

    def test_stats_gate_json(self, capsys):
        assert cli_main(["stats", "--gate", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["gate_passed"] is True

    def test_stats_gate_fails_without_streaming(self, capsys, monkeypatch):
        import repro.workloads as workloads

        monkeypatch.delitem(workloads.ALL_WORKLOADS, "base64_decode")
        assert cli_main(["stats", "--gate"]) == 5
        out = capsys.readouterr().out
        assert "coverage gate: FAIL" in out and "function" in out

    def test_stats_gate_required_can_be_raised(self, capsys):
        # only one workload family covers partial at required=3
        assert cli_main(["stats", "--gate", "--required", "3"]) == 5
        assert "DEFICIT" in capsys.readouterr().out

    def test_run_cli_accepts_streaming(self, capsys):
        assert cli_main(
            ["run", "utf8_validate", "--system", "arm_original", "--no-cache"]
        ) == 0
        assert "utf8_validate" in capsys.readouterr().out
