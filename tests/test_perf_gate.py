"""Tests for the perf gate (benchmarks/perf_gate.py).

The gate's contract: deterministic simulation metrics (logical bytes,
GET counts, billed dollars, ...) must match the committed baseline
exactly.  The regression-demonstration tests here are the acceptance
check that a changed byte count / GET count / billed price actually
fails CI.
"""

import importlib.util
import pathlib

import pytest

_GATE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "perf_gate.py"
)
_spec = importlib.util.spec_from_file_location("perf_gate", _GATE_PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def make_record(**metric_overrides):
    metrics = {
        "billed_dollars": 0.000695306426,
        "finished_queries": 30,
        "get_requests": 8,
        "logical_bytes_scanned": 3528450,
        "sim_seconds": 300.0,
    }
    metrics.update(metric_overrides)
    return {
        "schema_version": 1,
        "slug": "c1",
        "rounds": 2,
        "warmup": 0,
        "metrics": metrics,
    }


class TestCompareRecords:
    def test_identical_records_pass(self):
        assert perf_gate.compare_records(make_record(), make_record()) == []

    @pytest.mark.parametrize(
        "metric, regressed",
        [
            ("logical_bytes_scanned", 3528451),
            ("get_requests", 9),
            ("billed_dollars", 0.0007),
            ("finished_queries", 29),
        ],
    )
    def test_deterministic_metric_regression_fails(self, metric, regressed):
        violations = perf_gate.compare_records(
            make_record(), make_record(**{metric: regressed})
        )
        assert len(violations) == 1
        assert metric in violations[0]

    def test_float_serialization_jitter_is_tolerated(self):
        base = make_record()
        fresh = make_record(
            billed_dollars=base["metrics"]["billed_dollars"] * (1 + 1e-12)
        )
        assert perf_gate.compare_records(base, fresh) == []

    def test_missing_metric_fails(self):
        fresh = make_record()
        del fresh["metrics"]["get_requests"]
        violations = perf_gate.compare_records(make_record(), fresh)
        assert violations and "missing" in violations[0]

    def test_new_metric_requires_baseline_refresh(self):
        fresh = make_record(extra_counter=1)
        violations = perf_gate.compare_records(make_record(), fresh)
        assert violations and "refresh the baseline" in violations[0]

    def test_schema_version_mismatch_short_circuits(self):
        fresh = make_record(get_requests=999)
        fresh["schema_version"] = 2
        violations = perf_gate.compare_records(make_record(), fresh)
        assert len(violations) == 1
        assert "schema_version" in violations[0]


class TestRunGate:
    def test_missing_fresh_record_is_a_violation(self, monkeypatch, tmp_path):
        monkeypatch.setattr(perf_gate, "_REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(perf_gate, "_RESULTS_DIR", str(tmp_path / "r"))
        checked, violations = perf_gate.run_gate(slugs=["ghost"])
        assert checked == []
        assert violations and "no fresh record" in violations[0]

    def test_gate_round_trip_on_disk(self, monkeypatch, tmp_path):
        import json

        results = tmp_path / "results"
        results.mkdir()
        monkeypatch.setattr(perf_gate, "_REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(perf_gate, "_RESULTS_DIR", str(results))
        record = make_record()
        (results / "bench_c1.json").write_text(json.dumps(record))
        # No baseline yet: the gate demands one.
        checked, violations = perf_gate.run_gate(slugs=["c1"])
        assert violations and "no committed baseline" in violations[0]
        # --update promotes the fresh record, after which the gate passes.
        perf_gate.run_gate(slugs=["c1"], update=True)
        checked, violations = perf_gate.run_gate(slugs=["c1"])
        assert checked == ["c1"]
        assert violations == []

    def test_main_exit_codes(self, monkeypatch, tmp_path, capsys):
        import json

        results = tmp_path / "results"
        results.mkdir()
        monkeypatch.setattr(perf_gate, "_REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(perf_gate, "_RESULTS_DIR", str(results))
        (results / "bench_c1.json").write_text(json.dumps(make_record()))
        perf_gate.run_gate(slugs=["c1"], update=True)
        assert perf_gate.main(["c1"]) == 0
        tampered = make_record(get_requests=9)
        (results / "bench_c1.json").write_text(json.dumps(tampered))
        assert perf_gate.main(["c1"]) == 1
        captured = capsys.readouterr()
        assert "get_requests" in captured.err


def make_profile(scan_bytes=3528450, scan_nanos=500_000, scan_gets=8,
                 scan_time=1.5):
    return {
        "operators": {
            "Scan": {
                "time_s": scan_time,
                "nanodollars": scan_nanos,
                "bytes_scanned": scan_bytes,
                "get_requests": scan_gets,
            },
            "Aggregate": {
                "time_s": 0.3,
                "nanodollars": 100_000,
                "bytes_scanned": 0,
                "get_requests": 0,
            },
        }
    }


class TestExplain:
    """--explain root-causing: a synthetically perturbed baseline must
    name the regressed operator and resource."""

    def test_profile_diff_names_operator_and_resource(self):
        base = make_record()
        base["profile"] = make_profile()
        fresh = make_record(logical_bytes_scanned=4528450)
        fresh["profile"] = make_profile(scan_bytes=4528450,
                                        scan_nanos=700_000)
        lines = perf_gate.explain_records(base, fresh)
        assert lines
        assert "Scan regressed in bandwidth" in lines[0]
        assert "attributed" in lines[0]

    def test_request_regression_named(self):
        base = make_record()
        base["profile"] = make_profile()
        fresh = make_record(get_requests=800)
        fresh["profile"] = make_profile(scan_gets=800, scan_nanos=600_000)
        lines = perf_gate.explain_records(base, fresh)
        assert "Scan regressed in requests" in lines[0]

    def test_metric_fallback_without_profile_sections(self):
        lines = perf_gate.explain_records(
            make_record(), make_record(logical_bytes_scanned=999)
        )
        assert lines == [
            "c1: logical_bytes_scanned implicates bandwidth: "
            "baseline 3528450 -> fresh 999"
        ]

    def test_metric_fallback_classification(self):
        base = make_record()
        fresh = make_record(
            billed_dollars=0.9, get_requests=9, sim_seconds=301.0
        )
        text = "\n".join(perf_gate.explain_records(base, fresh))
        assert "billed_dollars implicates pricing" in text
        assert "get_requests implicates requests" in text
        assert "sim_seconds implicates compute" in text

    def test_identical_records_explain_empty(self):
        base = make_record()
        base["profile"] = make_profile()
        fresh = make_record()
        fresh["profile"] = make_profile()
        assert perf_gate.explain_records(base, fresh) == []

    def test_profile_section_ignored_by_gate_comparison(self):
        # Old baselines without a profile section stay valid, and a
        # changed profile alone is not a metrics violation.
        base = make_record()
        fresh = make_record()
        fresh["profile"] = make_profile()
        assert perf_gate.compare_records(base, fresh) == []

    def test_main_explain_prints_cause(self, monkeypatch, tmp_path, capsys):
        import json

        results = tmp_path / "results"
        results.mkdir()
        monkeypatch.setattr(perf_gate, "_REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(perf_gate, "_RESULTS_DIR", str(results))
        base = make_record()
        base["profile"] = make_profile()
        (tmp_path / "BENCH_c1.json").write_text(json.dumps(base))
        fresh = make_record(logical_bytes_scanned=4528450)
        fresh["profile"] = make_profile(scan_bytes=4528450,
                                        scan_nanos=700_000)
        (results / "bench_c1.json").write_text(json.dumps(fresh))
        assert perf_gate.main(["c1", "--explain"]) == 1
        captured = capsys.readouterr()
        assert "perf-gate: cause c1: Scan regressed in bandwidth" in captured.err


class TestPairedStepClasses:
    """``benchmarks/paired.py`` judges per-template predictions from the
    ``step <class> … p50=…`` lines ``benchmarks/layers/run.py`` prints."""

    @pytest.fixture(scope="class")
    def paired(self):
        spec = importlib.util.spec_from_file_location(
            "paired", _GATE_PATH.with_name("paired.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_step_lines_are_parsed_from_run_py_stderr(self, paired):
        stderr = (
            "engine_mix: seed 1, 36 timed rounds, 504 ops, 504 timed steps\n"
            "  ops_per_s quartiles over rounds: 80.5 / 85.2 / 89.5\n"
            "  step bot_share                    n=  36 p50=   58.356 ms\n"
            "  step count_star.cold              n=  12 p50=    7.993 ms\n"
            "  3 outputs not in golden.json, checked for run-to-run equality only:\n"
        )
        assert paired.STEP_LINE.findall(stderr) == [
            ("bot_share", "58.356"),
            ("count_star.cold", "7.993"),
        ]

    def test_each_class_gets_both_medians_and_heads_wins(self, paired):
        base = [{"q1": 29.0, "q6": 4.0}, {"q1": 31.0, "q6": 3.9}, {"q1": 30.0}]
        head = [{"q1": 16.0, "q6": 4.1}, {"q1": 18.0, "q6": 3.8}, {"q1": 33.0}]
        classes = paired.judge_step_classes(base, head)
        assert classes["q1"]["base_median"] == 30.0
        assert classes["q1"]["head_median"] == 18.0
        assert (classes["q1"]["head_wins"], classes["q1"]["pairs"]) == (2, 3)
        # a class one run did not report is judged over the pairs that did
        assert (classes["q6"]["head_wins"], classes["q6"]["pairs"]) == (1, 2)
        assert classes["q6"]["runs"] == {"base": [4.0, 3.9], "head": [4.1, 3.8]}

    def test_a_class_is_faster_or_slower_by_the_claims_own_rule(self, paired):
        steady = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

        def runs(**classes):
            return [
                {label: values[i] for label, values in classes.items()}
                for i in range(10)
            ]

        base = runs(quick=steady, slow=steady, noisy=steady, short=steady)
        head = runs(
            quick=[value * 0.6 for value in steady],
            slow=[value * 1.3 for value in steady],
            # wins 10/10, but by less than base's own quartile spread
            noisy=[value - 0.01 for value in steady],
            short=[value * 0.6 for value in steady],
        )
        for run in base[9:] + head[9:]:
            del run["short"]  # nine pairs are not enough
        verdicts = {
            label: row["verdict"]
            for label, row in paired.judge_step_classes(base, head).items()
        }
        assert verdicts == {"quick": "faster", "slow": "slower", "noisy": "", "short": ""}
        slow = paired.judge_step_classes(base, head)["slow"]
        assert (slow["head_wins"], slow["head_losses"]) == (0, 10)

    def test_the_metric_verdict_still_follows_the_same_rule(self, paired):
        base = [100.0 + i for i in range(10)]
        head = [value * 1.5 for value in base]
        assert paired.judge(base, head, "higher", 0.25)["verdict"] == "improved"
        assert paired.judge(base, head, "lower", 0.25)["verdict"] == "regressed"
        nine = paired.judge(base[:9], head[:9], "higher", 0.25)
        assert nine["verdict"] == "within bound"
