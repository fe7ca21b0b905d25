"""The simulator-throughput harness: repro bench + baseline checking."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.systems.bench import (
    BenchReport,
    BenchRun,
    check_baseline,
    load_baseline,
    run_bench,
)


def tiny_report() -> BenchReport:
    return run_bench(
        workloads=["rgb_gray"], systems=["arm_original"], repeats=1
    )


class TestRunBench:
    def test_measures_throughput(self):
        report = tiny_report()
        assert len(report.runs) == 1
        run = report.runs[0]
        assert run.label == "rgb_gray/arm_original"
        assert run.instructions > 0
        assert run.cycles > 0
        assert run.host_seconds > 0
        assert run.guest_mips > 0
        assert report.aggregate_mips > 0

    def test_json_schema(self):
        payload = tiny_report().to_json()
        assert payload["bench_version"] == 1
        assert set(payload) >= {
            "bench_version", "code_fingerprint", "python", "scale",
            "repeats", "aggregate", "runs",
        }
        agg = payload["aggregate"]
        assert agg["instructions"] > 0 and agg["guest_mips"] > 0
        run = payload["runs"][0]
        assert set(run) >= {
            "label", "workload", "system", "instructions", "cycles",
            "host_seconds", "guest_mips",
        }
        json.dumps(payload)  # must be serializable as-is

    def test_table_renders(self):
        text = tiny_report().table()
        assert "rgb_gray" in text and "aggregate:" in text

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            run_bench(repeats=0)
        with pytest.raises(ConfigError):
            run_bench(workloads=["rgb_gray"], systems=["no_such_system"])


class TestCheckBaseline:
    def fake_report(self, mips: float) -> BenchReport:
        report = BenchReport(scale="test", repeats=1)
        report.runs.append(BenchRun(
            label="w/s", workload="w", system="s",
            instructions=1_000_000, cycles=10,
            host_seconds=1.0 / mips, guest_mips=mips,
        ))
        return report

    def baseline(self, mips: float) -> dict:
        return self.fake_report(mips).to_json()

    def test_within_tolerance_passes(self):
        assert check_baseline(self.fake_report(0.9), self.baseline(1.0)) == []

    def test_faster_is_never_a_regression(self):
        assert check_baseline(self.fake_report(5.0), self.baseline(1.0)) == []

    def test_aggregate_regression_detected(self):
        problems = check_baseline(self.fake_report(0.5), self.baseline(1.0))
        assert problems and "aggregate" in problems[0]

    def test_per_run_regression_listed(self):
        problems = check_baseline(
            self.fake_report(0.4), self.baseline(1.0), tolerance=0.25
        )
        assert any("w/s" in p for p in problems)

    def test_unknown_labels_ignored(self):
        base = self.baseline(1.0)
        base["runs"][0]["label"] = "other/spec"
        report = self.fake_report(0.9)
        assert check_baseline(report, base) == []

    def test_report_passes_its_own_record(self):
        report = tiny_report()
        assert check_baseline(report, report.to_json()) == []

    def test_tolerance_validated(self):
        with pytest.raises(ConfigError):
            check_baseline(self.fake_report(1.0), self.baseline(1.0), tolerance=0.0)
        with pytest.raises(ConfigError):
            check_baseline(self.fake_report(1.0), self.baseline(1.0), tolerance=1.5)


class TestLoadBaseline:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_baseline(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_baseline(str(path))

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ConfigError, match="not a bench report"):
            load_baseline(str(path))


class TestBenchCLI:
    ARGS = ["bench", "--workloads", "rgb_gray", "--systems", "arm_original",
            "--repeats", "1"]

    def test_writes_report_and_passes_own_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.ARGS + ["-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bench_version"] == 1
        # the pass path against a baseline 1000x slower than this run, so
        # host noise between two timings cannot fail it (a report against
        # its own record is checked in TestCheckBaseline)
        payload["aggregate"]["guest_mips"] /= 1000
        for run in payload["runs"]:
            run["guest_mips"] /= 1000
        baseline = tmp_path / "deflated.json"
        baseline.write_text(json.dumps(payload))
        again = tmp_path / "again.json"
        assert main(self.ARGS + ["-o", str(again), "--check-baseline", str(baseline)]) == 0
        assert json.loads(again.read_text())["bench_version"] == 1

    def test_regression_exits_4(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.ARGS + ["-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload["aggregate"]["guest_mips"] = payload["aggregate"]["guest_mips"] * 1000
        baseline = tmp_path / "inflated.json"
        baseline.write_text(json.dumps(payload))
        assert main(self.ARGS + ["--check-baseline", str(baseline)]) == 4
        assert "regression" in capsys.readouterr().err

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["workload"] == "rgb_gray"

    def test_missing_baseline_is_config_error(self, capsys):
        assert main(self.ARGS + ["--check-baseline", "/no/such/file.json"]) == 2


class TestReportCLI:
    def test_renders_bench_record(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(TestBenchCLI.ARGS + ["-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rgb_gray" in text and "mips" in text

    def test_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"something": "else"}))
        assert main(["report", str(path)]) == 2

    def test_missing_file(self):
        assert main(["report", "/no/such/record.json"]) == 2
