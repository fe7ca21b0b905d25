"""The golden run matrix is the oracle for every execution path.

``tests/golden_runs.json`` pins the RunResult of every registered workload
on every system, with ``neon_dsa`` at each DSA stage (see
``tests/regen_golden_runs.py``).  The default configuration, the scalable
backend at VL=128 (architecturally the same machine as NEON) and the DSA
runs with covered execution disabled (the traced loop alone) must all hit
the committed digests.
"""

import pytest

from repro.cpu.config import CPUConfig

from .regen_golden_runs import assert_golden, golden_specs, load_golden

VARIANTS = {
    "neon": (None, golden_specs()),
    "scalable128": (None, [
        s for s in golden_specs("scalable", 128)
        if s.system in ("arm_original", "neon_dsa")
    ]),
    "uncovered": (
        CPUConfig(covered_execution=False),
        [s for s in golden_specs() if s.system == "neon_dsa"],
    ),
}

CASES = [
    pytest.param(config, spec, id=f"{variant}:{spec.label}")
    for variant, (config, specs) in VARIANTS.items()
    for spec in specs
]


def test_matrix_is_complete():
    assert set(load_golden()["runs"]) == {s.label for s in golden_specs()}
    assert len(load_golden()["runs"]) == 108


@pytest.mark.parametrize("config, spec", CASES)
def test_run_matches_golden(config, spec):
    assert_golden(spec, config)
