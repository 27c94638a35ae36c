import csv
import hashlib
import json
from pathlib import Path

import pytest

from hwnas.cli import main
from hwnas.evaluation import build_evaluator
from hwnas.network import MacroConfig
from hwnas.pareto import pareto_filter
from hwnas.records import SOURCE_RANDOM, EvaluationRecord, load_records, logical_timestamp
from hwnas.search_space import encode, enumerate_genomes

from test_evaluation import BAD_EVALUATOR_SPECS, constant_trace, triangular_trace


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "budget": 6,
        "n_init": 3,
        "num_blocks": 1,
        "evaluator": {"type": "synthetic", "profile": "movidius-ncs"},
        "log_path": str(tmp_path / "run.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSearchCommand:
    def test_fresh_run_writes_log(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path)]) == 0
        assert len(load_records(cfg["log_path"])) == 6
        assert "6 records" in capsys.readouterr().out

    def test_verbose_prints_each_record_before_the_summary(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path), "--verbose"]) == 0
        *progress, summary = capsys.readouterr().out.splitlines()
        records = load_records(cfg["log_path"])
        assert progress == [
            f"[bo] iteration {i}: error={r.objectives.error:.4f} "
            f"energy={r.objectives.energy_j:.4g}J time={r.objectives.time_s:.4g}s"
            for i, r in enumerate(records)
        ]
        assert [r.iteration for r in records] == list(range(6))
        assert summary.startswith("6 records in ")

    def test_rerun_is_idempotent(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path)]) == 0
        before = Path(cfg["log_path"]).read_bytes()
        assert main(["search", "--config", str(cfg_path)]) == 0
        assert Path(cfg["log_path"]).read_bytes() == before

    def test_interrupted_run_resumes_identically(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path)]) == 0
        full = Path(cfg["log_path"]).read_bytes()
        lines = full.decode().strip().split("\n")
        Path(cfg["log_path"]).write_text("\n".join(lines[:3]) + "\n")
        assert main(["search", "--config", str(cfg_path)]) == 0
        assert Path(cfg["log_path"]).read_bytes() == full

    @pytest.mark.parametrize("line", ["5", '{"iteration": 0, "objectives": null}'])
    def test_malformed_log_line_is_reported_with_its_place(self, tmp_path, capsys, line):
        cfg_path, cfg = write_config(tmp_path)
        Path(cfg["log_path"]).write_text(line + "\n")
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg['log_path']}:1: ")

    @pytest.mark.parametrize("failed", [False, True])
    def test_genome_of_another_block_count_is_reported_with_its_place(self, tmp_path, capsys, failed):
        cfg_path, cfg = write_config(tmp_path, budget=4)
        assert main(["search", "--config", str(cfg_path)]) == 0
        log = Path(cfg["log_path"])
        lines = log.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["genome"]["blocks"] *= 2
        if failed:
            entry["objectives"] = None
        lines[2] = json.dumps(entry)
        log.write_text("\n".join(lines) + "\n")
        before = log.read_bytes()
        assert main(["search", "--config", str(cfg_path), "--budget", "6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg['log_path']}:3: genome has 2 blocks, line 1's has 1")
        assert log.read_bytes() == before

    def test_log_of_another_block_count_refused(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path, budget=3)
        assert main(["search", "--config", str(cfg_path)]) == 0
        log = Path(cfg["log_path"])
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        for entry in entries:
            entry["genome"]["blocks"] *= 2
        log.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        before = log.read_bytes()
        assert main(["search", "--config", str(cfg_path), "--budget", "5"]) == 1
        assert "genomes have 2 blocks, config has num_blocks=1" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_failure_log_of_another_block_count_refused(self, tmp_path, capsys):
        # A log of failure events only has no fingerprint, but its genomes'
        # ranks belong to another space, so resuming it is refused too.
        cfg_path, cfg = write_config(tmp_path, budget=3)
        assert main(["search", "--config", str(cfg_path)]) == 0
        log = Path(cfg["log_path"])
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        for entry in entries:
            entry["genome"]["blocks"] *= 2
            entry["objectives"] = None
            entry["meta"] = {"failed": True}
        log.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        before = log.read_bytes()
        assert main(["search", "--config", str(cfg_path), "--budget", "5"]) == 1
        assert "genomes have 2 blocks, config has num_blocks=1" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_seed_mismatch_refused(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path)]) == 0
        assert main(["search", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "disagrees" in capsys.readouterr().err

    def test_evaluator_mismatch_refused(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path)]) == 0
        other_path, _ = write_config(
            tmp_path, evaluator={"type": "synthetic", "profile": "titanx"}
        )
        assert main(["search", "--config", str(other_path)]) == 1
        assert "evaluator" in capsys.readouterr().err

    def test_lock_file_refusal(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        Path(cfg["log_path"] + ".lock").touch()
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert "lock" in capsys.readouterr().err

    def test_budget_flag_overrides(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["search", "--config", str(cfg_path), "--budget", "4"]) == 0
        assert len(load_records(cfg["log_path"])) == 4

    def test_missing_log_path_rejected(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, log_path=None)
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert "log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("evaluator", "synthetic"),
            ("log_path", 5),
            ("objective_subset", "energy"),
            ("objective_subset", ["error", 1]),
        ],
    )
    def test_bad_field_named_before_the_run(self, tmp_path, capsys, field, bad):
        cfg_path, _ = write_config(tmp_path, **{field: bad})
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("raw", [[["seed", 2]], "abc", None])
    def test_config_that_is_not_an_object_refused_before_the_run(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        log_path = tmp_path / "run.jsonl"
        assert main(["search", "--config", str(cfg_path), "--log", str(log_path)]) == 1
        assert capsys.readouterr().err.startswith("error: config must be a JSON object (dict), got ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "macro, message",
        [
            ({"N": 2.5}, "N must be an int"),
            ({"N": 2.0}, "N must be an int"),
            ({"num_classes": True}, "num_classes must be an int"),
            ({"input_shape": [32.7, 32, 3]}, "input_shape must hold three ints"),
            ([2, 24], "macro must be a JSON object"),
            ({"n": 2}, "unknown macro fields: ['n']"),
            ({"input_shape": ["32", 32, 3]}, "input_shape must hold three ints"),
            ({"input_shape": [32, 32]}, "input_shape must hold three ints"),
        ],
    )
    def test_bad_macro_refused_before_the_run(self, tmp_path, capsys, macro, message):
        cfg_path, _ = write_config(tmp_path, macro=macro)
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("spec, message", BAD_EVALUATOR_SPECS)
    def test_bad_evaluator_spec_refused_before_the_run(self, tmp_path, capsys, spec, message):
        cfg_path, _ = write_config(tmp_path, evaluator=spec)
        assert main(["search", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestRandomCommand:
    def test_runs_and_tags_source(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["random", "--config", str(cfg_path)]) == 0
        records = load_records(cfg["log_path"])
        assert {r.source for r in records} == {"random"}


class TestParetoCommand:
    def test_front_of_paper_pair(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path, budget=8)
        main(["search", "--config", str(cfg_path)])
        out_path = tmp_path / "front.json"
        assert main(["pareto", "--log", cfg["log_path"], "--out", str(out_path)]) == 0
        front = json.loads(out_path.read_text())
        assert front["objective_subset"] == ["error", "energy", "time"]
        assert 1 <= len(front["front"]) <= 8

    def test_matches_in_process_filter(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, budget=10)
        main(["search", "--config", str(cfg_path)])
        out_path = tmp_path / "front.json"
        main(["pareto", "--log", cfg["log_path"], "--out", str(out_path)])
        cli_iters = [m["iteration"] for m in json.loads(out_path.read_text())["front"]]
        records = load_records(cfg["log_path"])
        assert cli_iters == [r.iteration for r in pareto_filter(records)]

    def test_stride_snapshots(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, budget=8)
        main(["search", "--config", str(cfg_path)])
        out_path = tmp_path / "snap.json"
        assert main(["pareto", "--log", cfg["log_path"], "--stride", "2", "--out", str(out_path)]) == 0
        snaps = json.loads(out_path.read_text())["snapshots"]
        assert [s["records"] for s in snaps] == [2, 4, 6, 8]

    @pytest.mark.parametrize("stride", ["0", "-5", "two"])
    def test_stride_must_be_positive(self, tmp_path, capsys, stride):
        cfg_path, cfg = write_config(tmp_path, budget=4)
        main(["search", "--config", str(cfg_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pareto", "--log", cfg["log_path"], f"--stride={stride}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --stride: must be a positive integer, got '{stride}'" in captured.err

    def test_subset_flag(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, budget=6)
        main(["search", "--config", str(cfg_path)])
        out_path = tmp_path / "front.json"
        assert main([
            "pareto", "--log", cfg["log_path"], "--objectives", "energy,time", "--out", str(out_path)
        ]) == 0
        assert json.loads(out_path.read_text())["objective_subset"] == ["energy", "time"]

    def test_empty_log_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["pareto", "--log", str(empty)]) == 1

    def test_reported_value_pair_front(self, tmp_path):
        # Two measured models where one is better on both error and energy.
        log_path = tmp_path / "pair.jsonl"
        with open(log_path, "w") as fh:
            for i, (err, energy) in enumerate(((0.2342, 1.16), (0.2390, 1.32))):
                fh.write(json.dumps({
                    "iteration": i, "source": "bo", "device": "movidius-ncs",
                    "genome": {"blocks": [[0, 0, 1, 1]]},
                    "objectives": {"error": err, "energy_j": energy, "time_s": 1.0},
                    "timestamp": "1970-01-01T00:00:00+00:00", "meta": {},
                }) + "\n")
        out = tmp_path / "front.json"
        assert main([
            "pareto", "--log", str(log_path), "--objectives", "error,energy", "--out", str(out)
        ]) == 0
        front = json.loads(out.read_text())["front"]
        assert len(front) == 1
        assert front[0]["objectives"]["error"] == 0.2342
        assert front[0]["objectives"]["energy_j"] == 1.16


class TestTraceCommand:
    def test_constant_fixture(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        constant_trace().to_csv(trace_path)
        out = tmp_path / "m.json"
        assert main(["trace", "--trace", str(trace_path), "--threshold", "1.0", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["time_s"] == pytest.approx(5.0)
        assert got["energy_j"] == pytest.approx(10.0)
        assert got["t1_ms"] == 0.0 and got["t2_ms"] == 5000.0

    def test_triangular_fixture_with_low_threshold(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        triangular_trace().to_csv(trace_path)
        out = tmp_path / "m.json"
        assert main(["trace", "--trace", str(trace_path), "--threshold", "0.1", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["energy_j"] == pytest.approx(10.0, abs=0.01)

    def test_profile_supplies_threshold(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        constant_trace(power=100.0).to_csv(trace_path)
        assert main(["trace", "--trace", str(trace_path), "--profile", "titanx"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["energy_j"] == pytest.approx(500.0)

    def test_threshold_and_profile_conflict(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        constant_trace().to_csv(trace_path)
        assert main([
            "trace", "--trace", str(trace_path), "--threshold", "1", "--profile", "titanx"
        ]) == 1

    def test_malformed_row_reported(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_ms,power_w\n0,1\n20\n")
        assert main(["trace", "--trace", str(trace_path), "--threshold", "1"]) == 1
        err = capsys.readouterr().err
        assert "t.csv: " in err and "row" in err


class TestReevalCommand:
    def test_cross_device_report(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, budget=10)
        main(["search", "--config", str(cfg_path)])
        out = tmp_path / "report.json"
        assert main([
            "reeval",
            "--log", cfg["log_path"],
            "--target", json.dumps({"type": "synthetic", "profile": "titanx"}),
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["target_device"] == "titanx"
        assert all(m["target_objectives"] is not None for m in report["models"])
        # classification error does not depend on the device
        for m in report["models"]:
            assert m["target_objectives"]["error"] == pytest.approx(m["source_objectives"]["error"])

    @pytest.mark.parametrize("form", ["long_json", "file"])
    def test_target_as_long_json_or_file(self, tmp_path, form):
        cfg_path, cfg = write_config(tmp_path, budget=4)
        main(["search", "--config", str(cfg_path)])
        # Longer than a file name may be (255 bytes), with no "/" to split it.
        target = '{"type": "synthetic",' + " " * 300 + '"profile": "titanx"}'
        if form == "file":
            (tmp_path / "target.json").write_text(target)
            target = str(tmp_path / "target.json")
        out = tmp_path / "report.json"
        assert main(["reeval", "--log", cfg["log_path"], "--target", target, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["target_device"] == "titanx"

    def test_malformed_long_target_reports_the_json_error(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path, budget=4)
        main(["search", "--config", str(cfg_path)])
        capsys.readouterr()
        target = '{"type": "synthetic",' + " " * 300
        assert main(["reeval", "--log", cfg["log_path"], "--target", target]) == 1
        assert capsys.readouterr().err.startswith("error: Expecting property name")

    def test_target_that_is_not_an_object_is_named(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path, budget=4)
        main(["search", "--config", str(cfg_path)])
        assert main(["reeval", "--log", cfg["log_path"], "--target", '"x"']) == 1
        assert capsys.readouterr().err.startswith("error: evaluator must be a JSON object (dict), got 'x'")


class TestEnumerateCommand:
    def test_one_block_table(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["enumerate", "--blocks", "1", "--profile", "movidius-ncs", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert len(table["rows"]) == 256
        front_rows = [r for r in table["rows"] if r["is_pareto"]]
        assert 0 < len(front_rows) < 256
        # Every 1-block genome through decode, network_costs and the
        # evaluator, pinned byte for byte; CI pins the 2-block table too.
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "52ca9e6895809abba9006e79ea853d4f39ec5a7868992581333035fd1309e7af"

    def test_front_is_what_pareto_filter_keeps(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["enumerate", "--blocks", "1", "--profile", "movidius-ncs", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [tuple(r["encoding"]) for r in rows] == [encode(g) for g in enumerate_genomes(1)]
        evaluator, device = build_evaluator({"type": "synthetic", "profile": "movidius-ncs"}, MacroConfig())
        records = [
            EvaluationRecord(g, evaluator(g), device, i, SOURCE_RANDOM, logical_timestamp(i))
            for i, g in enumerate(enumerate_genomes(1))
        ]
        assert [r["objectives"] for r in rows] == [r.objectives.to_json_dict() for r in records]
        front = {encode(r.genome) for r in pareto_filter(records)}
        assert {tuple(r["encoding"]) for r in rows if r["is_pareto"]} == front

    def test_five_blocks_refused(self, tmp_path, capsys):
        assert main(["enumerate", "--blocks", "5", "--profile", "movidius-ncs"]) == 1
        assert "cap" in capsys.readouterr().err


class TestExportCommand:
    def test_csv_columns(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, budget=6)
        main(["search", "--config", str(cfg_path)])
        out = tmp_path / "plot.csv"
        assert main(["export", "--log", cfg["log_path"], "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "error", "energy_j", "time_s", "is_pareto"]
        assert len(rows) == 7
        assert {r[4] for r in rows[1:]} <= {"0", "1"}


class TestLogWithFailureEvents:
    """``pareto``, ``export`` and ``reeval`` list a log's measured records and skip its failure events."""

    LOG = str(Path(__file__).parent / "data" / "b1_failures.jsonl")

    def measured(self):
        entries = [json.loads(line) for line in Path(self.LOG).read_text().splitlines()]
        assert sum(e["objectives"] is None for e in entries) == 10
        return [EvaluationRecord.from_json_dict(e) for e in entries if e["objectives"] is not None]

    def front(self):
        return [(r.iteration, r.genome.to_json_dict()) for r in pareto_filter(self.measured())]

    def test_pareto(self, tmp_path):
        out = tmp_path / "front.json"
        assert main(["pareto", "--log", self.LOG, "--out", str(out)]) == 0
        front = json.loads(out.read_text())["front"]
        assert [(m["iteration"], m["genome"]) for m in front] == self.front()

    def test_export(self, tmp_path):
        out = tmp_path / "plot.csv"
        assert main(["export", "--log", self.LOG, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        measured = self.measured()
        assert [int(r[0]) for r in rows] == [r.iteration for r in measured] == list(range(30))
        assert [float(r[1]) for r in rows] == [r.objectives.error for r in measured]

    def test_reeval(self, tmp_path):
        out = tmp_path / "report.json"
        target = json.dumps({"type": "synthetic", "profile": "titanx"})
        assert main(["reeval", "--log", self.LOG, "--target", target, "--out", str(out)]) == 0
        models = json.loads(out.read_text())["models"]
        assert [(m["source_iteration"], m["genome"]) for m in models] == self.front()
