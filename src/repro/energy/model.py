"""Event-based energy accounting (paper Section 5.2, Fig. 32).

Dynamic energy is charged per architectural event (instruction class,
cache access, NEON operation, DSA stage activation — different loop types
exercise different state-machine paths, hence different energies, exactly
the per-scenario exploration of Fig. 32); leakage integrates component
power over the run's wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.core import Core, CoreResult
from .params import DEFAULT_ENERGY_PARAMS, EnergyParams

PJ_TO_MJ = 1e-9  # 1 pJ = 1e-9 mJ
MW_S_TO_MJ = 1.0  # 1 mW * 1 s = 1 mJ


@dataclass
class EnergyReport:
    """Energy breakdown for one run, in millijoules."""

    core_dynamic: float = 0.0
    memory_dynamic: float = 0.0
    neon_dynamic: float = 0.0
    dsa_dynamic: float = 0.0
    leakage: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.core_dynamic
            + self.memory_dynamic
            + self.neon_dynamic
            + self.dsa_dynamic
            + self.leakage
        )

    def savings_over(self, baseline: "EnergyReport") -> float:
        """Fractional energy saving relative to ``baseline`` (0.45 = 45%)."""
        if baseline.total == 0:
            return 0.0
        return 1.0 - self.total / baseline.total

    def breakdown(self) -> dict[str, float]:
        return {
            "core_dynamic_mj": self.core_dynamic,
            "memory_dynamic_mj": self.memory_dynamic,
            "neon_dynamic_mj": self.neon_dynamic,
            "dsa_dynamic_mj": self.dsa_dynamic,
            "leakage_mj": self.leakage,
            "total_mj": self.total,
        }


class EnergyModel:
    """Computes an :class:`EnergyReport` from a finished run."""

    def __init__(self, params: EnergyParams | None = None):
        self.params = params or DEFAULT_ENERGY_PARAMS

    # ------------------------------------------------------------------
    def report(self, core: Core, result: CoreResult, dsa=None) -> EnergyReport:
        p = self.params
        out = EnergyReport()

        # -- scalar + vector instruction energy -------------------------
        counts = result.icounts
        per_class_pj = {
            "Alu": p.alu_pj,
            "Mov": p.alu_pj,
            "Cmp": p.alu_pj,
            "Mul": p.mul_pj,
            "FloatOp": p.float_pj,
            "Mem": p.alu_pj,  # address generation; the access is separate
            "Branch": p.branch_pj,
            "BranchReg": p.branch_pj,
            "Nop": p.alu_pj * 0.25,
            "Halt": 0.0,
        }
        # The per-op vector energies in EnergyParams are calibrated for one
        # 128-bit (16-byte) operation; a wider backend moves proportionally
        # more lanes per op, so its dynamic per-op cost scales with width.
        # NEON's factor is exactly 1.0, keeping its reports bit-identical.
        width_factor = core.vector.width_bytes / 16
        core_pj = 0.0
        neon_pj = 0.0
        for cls, count in counts.items():
            if cls in per_class_pj:
                core_pj += count * (per_class_pj[cls] + p.fetch_decode_pj + p.regfile_pj)
            else:
                # vector instruction executed architecturally (autovec /
                # hand-vectorized binaries)
                instr_pj = p.neon_mem_pj if cls in ("VLoad", "VStore", "VLoadLane", "VStoreLane") else p.neon_arith_pj
                neon_pj += count * (instr_pj * width_factor + p.fetch_decode_pj)

        # suppressed scalar instructions were architecturally replaced by
        # the DSA's NEON burst: their core energy is not spent
        suppressed = core.timing.stats.suppressed_instructions
        if suppressed and result.instructions:
            avg_core_pj = core_pj / max(1, result.instructions - _vector_count(counts))
            core_pj -= suppressed * avg_core_pj

        # -- DSA-generated vector bursts ---------------------------------
        if dsa is not None:
            neon_pj += dsa.stats.vector_mem_ops * (p.neon_mem_pj * width_factor)
            neon_pj += dsa.stats.vector_arith_ops * (p.neon_arith_pj * width_factor)

        # -- memory hierarchy --------------------------------------------
        h = result.hierarchy_stats
        mem_pj = (
            h.get("l1_accesses", 0) * p.l1_access_pj
            + h.get("l2_accesses", 0) * p.l2_access_pj
            + h.get("dram_accesses", 0) * p.dram_access_pj
        )

        # -- DSA stage activations (per-scenario paths, Fig. 32) ----------
        dsa_pj = 0.0
        if dsa is not None:
            s = dsa.stats.stage_activations
            dsa_pj += s.get("loop_detection", 0) * p.dsa_loop_detection_pj
            dsa_pj += s.get("data_collection", 0) * p.dsa_collection_record_pj
            dsa_pj += s.get("dependency_analysis", 0) * p.dsa_dependency_pj
            dsa_pj += s.get("store_id_execution", 0) * p.dsa_execution_pj
            dsa_pj += s.get("mapping", 0) * p.dsa_mapping_pj
            dsa_pj += s.get("speculative", 0) * p.dsa_speculative_pj
            dsa_pj += dsa.cache.stats.accesses * p.dsa_cache_access_pj
            dsa_pj += dsa.vcache.stats.accesses * p.dsa_vcache_access_pj
            dsa_pj += dsa.stats.detection_cycles * p.dsa_collection_record_pj

        # -- leakage -------------------------------------------------------
        # the NEON engine is clock-gated while idle: its leakage is charged
        # over the fraction of cycles it was busy (1 op/cycle throughput)
        seconds = result.seconds
        leak_mw = p.core_leakage_mw + p.caches_leakage_mw
        vec_ops = core.timing.stats.vector_instructions
        if vec_ops and result.cycles:
            busy_fraction = min(1.0, vec_ops / result.cycles)
            leak_mw += p.neon_leakage_mw * busy_fraction
        if dsa is not None:
            leak_mw += p.dsa_leakage_mw

        out.core_dynamic = core_pj * PJ_TO_MJ
        out.memory_dynamic = mem_pj * PJ_TO_MJ
        out.neon_dynamic = neon_pj * PJ_TO_MJ
        out.dsa_dynamic = dsa_pj * PJ_TO_MJ
        out.leakage = leak_mw * seconds * MW_S_TO_MJ
        return out


def _vector_count(counts) -> int:
    vec_classes = {"VLoad", "VStore", "VLoadLane", "VStoreLane", "VBinOp", "VMla",
                   "VShiftImm", "VUnary", "VDup", "VDupImm", "VCmp", "VBsl",
                   "VMovQ", "VMovToCore", "VMovFromCore"}
    return sum(c for cls, c in counts.items() if cls in vec_classes)
