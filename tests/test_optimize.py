import json
import os
import socket
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hwnas.evaluation import build_evaluator, get_profile, synthetic_evaluate
from hwnas.gp import featurize_batch, fit, hamming_table
from hwnas.network import MacroConfig
from hwnas.optimize import (
    EVALUATOR_RETRIES,
    ConfigMismatchError,
    LogLockedError,
    RunConfig,
    SearchState,
    SpaceExhaustedError,
    _acquisition_batch,
    propose_next,
    reference_point,
    reevaluate_cross_device,
    run_random,
    run_search,
)
from hwnas.pareto import pareto_filter
from hwnas.records import (
    EvaluationRecord,
    ObjectiveVector,
    logical_timestamp,
    normalize_subset,
    objective_matrix,
    read_log,
    split_log_entries,
    transform_values,
)
from hwnas.search_space import decode, encode, enumerate_genomes, random_genome

SYNTH = {"type": "synthetic", "profile": "movidius-ncs"}


def small_config(tmp_path=None, **kw):
    defaults = dict(
        seed=0,
        budget=6,
        n_init=3,
        num_blocks=1,
        evaluator=SYNTH,
        log_path=str(tmp_path / "run.jsonl") if tmp_path else None,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def make_record(values, i=0, genome=None, device="dev", source="random"):
    genome = genome or random_genome(np.random.default_rng(i))
    return EvaluationRecord(
        genome=genome,
        objectives=ObjectiveVector(*values),
        device=device,
        iteration=i,
        source=source,
        timestamp=logical_timestamp(i),
    )


class TestRecords:
    def test_objective_vector_validation(self):
        with pytest.raises(ValueError):
            ObjectiveVector(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            ObjectiveVector(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            ObjectiveVector(0.5, float("nan"), 1.0)

    def test_subset_normalization(self):
        assert normalize_subset(["time", "error"]) == ("error", "time")
        with pytest.raises(ValueError):
            normalize_subset([])
        with pytest.raises(ValueError):
            normalize_subset(["accuracy"])

    def test_record_json_round_trip(self):
        rec = make_record((0.2, 1.5, 0.1), i=3)
        back = EvaluationRecord.from_json_dict(rec.to_json_dict())
        assert back == rec

    def test_log_line_key_order(self):
        rec = make_record((0.2, 1.5, 0.1))
        keys = list(rec.to_json_dict())
        assert keys == ["iteration", "source", "device", "genome", "objectives", "timestamp", "meta"]
        obj_keys = list(rec.to_json_dict()["objectives"])
        assert obj_keys == ["error", "energy_j", "time_s"]

    def test_transform_logs_energy_and_time(self):
        V = np.array([[0.2, np.e, np.e**2]])
        T = transform_values(V, None)
        assert T[0, 0] == pytest.approx(0.2)
        assert T[0, 1] == pytest.approx(1.0)
        assert T[0, 2] == pytest.approx(2.0)

    def test_non_consecutive_iterations_rejected(self, tmp_path):
        from hwnas.records import LogError, append_log_line

        path = tmp_path / "bad.jsonl"
        for i in (0, 2):
            append_log_line(path, make_record((0.2, 1.0, 1.0), i=i).to_json_dict())
        with pytest.raises(LogError):
            split_log_entries(read_log(path))


class TestReferencePoint:
    def test_positive_worst_is_ten_percent_margin(self):
        vals = np.array([[1.0, 2.0], [0.5, 4.0]])
        ref = reference_point(vals)
        assert ref == pytest.approx([1.1, 4.4])

    def test_negative_worst_still_strictly_worse(self):
        vals = np.array([[-3.0, -0.5], [-2.0, -1.0]])
        ref = reference_point(vals)
        assert np.all(ref > vals.max(axis=0))


def ehvi_of(models, records, front, candidate, ref=None):
    """Exact EHVI of one candidate, through the pool scorer with a one-row batch.

    ``models`` are fit on ``records``, in order.
    """
    subset = normalize_subset(models.keys())
    front_t = transform_values(objective_matrix(front, subset), subset)
    if ref is None:
        ref = reference_point(front_t)
    table = hamming_table(np.array([encode(candidate)]), np.array([encode(r.genome) for r in records]))
    return float(_acquisition_batch(models, subset, front_t, ref, table)[0])


class TestAcquisition:
    def setup_models(self, n=12, subset=("error", "energy", "time")):
        rng = np.random.default_rng(0)
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        genomes = [random_genome(rng, 1) for _ in range(n)]
        records = [
            make_record(
                tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g
            )
            for i, g in enumerate(genomes)
        ]
        X = featurize_batch(genomes)
        T = transform_values(objective_matrix(records, subset), subset)
        models = {name: fit(X, T[:, j], seed=j) for j, name in enumerate(subset)}
        return records, models

    def test_deterministic_under_fixed_seed(self):
        records, models = self.setup_models()
        front = pareto_filter(records)
        cand = random_genome(np.random.default_rng(5), 1)
        a = ehvi_of(models, records, front, cand)
        b = ehvi_of(models, records, front, cand)
        assert a == b

    def test_scores_nonnegative(self):
        records, models = self.setup_models()
        front = pareto_filter(records)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = ehvi_of(models, records, front, random_genome(rng, 1))
            assert s >= 0.0

    def test_evaluated_dominated_candidate_scores_near_zero(self):
        records, _ = self.setup_models()
        subset = ("error", "energy", "time")
        # Append a record strictly worse than an existing one on every axis.
        base = records[0].objectives
        loser_genome = random_genome(np.random.default_rng(99), 1)
        loser = make_record(
            (min(base.error + 0.05, 1.0), base.energy_j * 2, base.time_s * 2),
            i=len(records),
            genome=loser_genome,
        )
        records = records + [loser]
        front = pareto_filter(records)
        assert id(loser) not in {id(r) for r in front}
        # Tiny-noise models pinned at the observation make improvement unlikely.
        X = featurize_batch([r.genome for r in records])
        T = transform_values(objective_matrix(records, subset), subset)
        from hwnas.gp import GPModel, KernelParams

        tight = {
            name: GPModel(X, T[:, j], KernelParams(2.0, 1.0, 1e-6))
            for j, name in enumerate(subset)
        }
        score = ehvi_of(tight, records, front, loser.genome)
        assert score < 1e-3

    def test_empty_front_equals_expected_dominated_volume(self):
        records, models = self.setup_models()
        subset = ("error", "energy", "time")
        hist_t = transform_values(objective_matrix(records, subset), subset)
        ref = reference_point(hist_t)
        cand = random_genome(np.random.default_rng(7), 1)
        score = ehvi_of(models, records, [], cand, ref=ref)
        # Monte-Carlo oracle: expected volume of [sample, ref].
        from hwnas.gp import featurize

        feats = featurize(cand)[None, :]
        rng = np.random.default_rng(123)
        total = 0.0
        n = 200_000
        draws = np.empty((n, 3))
        for j, name in enumerate(subset):
            mean, var = models[name].predict_features(feats)
            draws[:, j] = rng.normal(mean[0], np.sqrt(var[0]), size=n)
        vols = np.prod(np.maximum(ref[None, :] - draws, 0.0), axis=1)
        se = vols.std(ddof=1) / np.sqrt(n)
        assert abs(score - vols.mean()) <= 4 * se + 1e-6


class TestProposeNext:
    def test_warmup_is_random_valid(self):
        state = SearchState(history=[], objective_subset=normalize_subset(None),
                            num_blocks=5, n_init=3)
        g = propose_next(state, None, np.random.default_rng(0))
        assert g.num_blocks == 5

    def test_proposals_exclude_evaluated(self):
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        genomes = list(enumerate_genomes(1))
        records = [
            make_record(tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g)
            for i, g in enumerate(genomes[:255])
        ]
        state = SearchState(
            history=records,
            objective_subset=normalize_subset(None),
            num_blocks=1,
            n_init=3,
            excluded={encode(r.genome) for r in records},
        )
        X = featurize_batch([r.genome for r in records])
        T = transform_values(objective_matrix(records), None)
        models = {name: fit(X, T[:, j], seed=j) for j, name in enumerate(normalize_subset(None))}
        g = propose_next(state, models, np.random.default_rng(1))
        assert encode(g) == encode(genomes[255])

    def test_space_exhausted(self):
        genomes = list(enumerate_genomes(1))
        state = SearchState(
            history=[],
            objective_subset=normalize_subset(None),
            num_blocks=1,
            n_init=3,
            excluded={encode(g) for g in genomes},
        )
        with pytest.raises(SpaceExhaustedError):
            propose_next(state, None, np.random.default_rng(0))

    def test_deterministic_proposals(self):
        state = SearchState(history=[], objective_subset=normalize_subset(None),
                            num_blocks=5, n_init=3)
        a = propose_next(state, None, np.random.default_rng(4))
        b = propose_next(state, None, np.random.default_rng(4))
        assert a == b


class TestRunSearch:
    def test_budget_reached_and_log_written(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(cfg.evaluator, cfg.macro)
        records = run_search(cfg, ev)
        assert len(records) == 6
        lines = Path(cfg.log_path).read_text().strip().split("\n")
        assert len(lines) == 6
        assert [json.loads(l)["iteration"] for l in lines] == list(range(6))

    def test_reproducible_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path, log_path=str(tmp_path / "a.jsonl"))
        cfg_b = small_config(tmp_path, log_path=str(tmp_path / "b.jsonl"))
        ev, _ = build_evaluator(SYNTH, cfg_a.macro)
        run_search(cfg_a, ev)
        run_search(cfg_b, ev)
        assert Path(cfg_a.log_path).read_bytes() == Path(cfg_b.log_path).read_bytes()

    def test_resume_appends_identically(self, tmp_path):
        full_cfg = small_config(tmp_path, log_path=str(tmp_path / "full.jsonl"))
        ev, _ = build_evaluator(SYNTH, full_cfg.macro)
        run_search(full_cfg, ev)
        full_bytes = Path(full_cfg.log_path).read_bytes()

        part_path = tmp_path / "part.jsonl"
        lines = full_bytes.decode().strip().split("\n")
        part_path.write_text("\n".join(lines[:4]) + "\n")
        part_cfg = small_config(tmp_path, log_path=str(part_path))
        records = run_search(part_cfg, ev)
        assert len(records) == 6
        assert part_path.read_bytes() == full_bytes

    def test_resume_with_met_budget_appends_nothing(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(cfg, ev)
        before = Path(cfg.log_path).read_bytes()
        run_search(cfg, ev)
        assert Path(cfg.log_path).read_bytes() == before

    def test_config_mismatch_refused(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(cfg, ev, budget=3)
        other = small_config(tmp_path, seed=99)
        with pytest.raises(ConfigMismatchError):
            run_search(other, ev)

    def test_macro_mismatch_refused(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(cfg, ev, budget=3)
        other = replace(cfg, macro=MacroConfig(N=5, F=64))
        with pytest.raises(ConfigMismatchError, match="macro"):
            run_search(other, ev)

    def test_log_without_macro_key_resumes(self, tmp_path):
        # Logs written before the macro config joined the fingerprint lack the key.
        full_cfg = small_config(tmp_path, log_path=str(tmp_path / "full.jsonl"))
        ev, _ = build_evaluator(SYNTH, full_cfg.macro)
        run_search(full_cfg, ev)
        lines = Path(full_cfg.log_path).read_text().strip().split("\n")
        first = json.loads(lines[0])
        assert first["meta"].pop("macro") == full_cfg.macro.to_json_dict()
        old_first = json.dumps(first, separators=(",", ":"))
        part_path = tmp_path / "part.jsonl"
        part_path.write_text("\n".join([old_first] + lines[1:3]) + "\n")
        run_search(small_config(tmp_path, log_path=str(part_path)), ev)
        assert part_path.read_text().strip().split("\n") == [old_first] + lines[1:]

    def test_no_duplicate_genomes(self, tmp_path):
        cfg = small_config(tmp_path, budget=40, n_init=5)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        records = run_search(cfg, ev)
        encs = [encode(r.genome) for r in records]
        assert len(set(encs)) == len(encs)

    def test_lock_refuses_concurrent_run(self, tmp_path):
        cfg = small_config(tmp_path)
        Path(str(cfg.log_path) + ".lock").touch()
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        with pytest.raises(LogLockedError):
            run_search(cfg, ev)

    def test_lock_names_its_owner(self, tmp_path):
        cfg = small_config(tmp_path)
        lock = Path(str(cfg.log_path) + ".lock")
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        owners = []

        def watching(genome):
            owners.append(lock.read_text())
            return ev(genome)

        run_search(cfg, watching)
        assert set(owners) == {f"{os.getpid()}@{socket.gethostname()}\n"}
        assert not lock.exists()

        lock.write_text("4242@elsewhere\n")
        with pytest.raises(LogLockedError, match="4242@elsewhere"):
            run_search(cfg, ev)

    def test_locked_log_is_neither_read_nor_mended(self, tmp_path):
        cfg = small_config(tmp_path)
        torn = b'{"iteration":0,"sour'
        Path(cfg.log_path).write_bytes(torn)
        Path(str(cfg.log_path) + ".lock").touch()
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        with pytest.raises(LogLockedError):
            run_search(cfg, ev)
        assert Path(cfg.log_path).read_bytes() == torn

    def test_torn_last_line_is_dropped_and_resumed(self, tmp_path, capsys):
        full_cfg = small_config(tmp_path, log_path=str(tmp_path / "full.jsonl"))
        ev, _ = build_evaluator(SYNTH, full_cfg.macro)
        run_search(full_cfg, ev)
        full_bytes = Path(full_cfg.log_path).read_bytes()
        lines = full_bytes.split(b"\n")
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"\n".join(lines[:4]) + b"\n" + lines[4][: len(lines[4]) // 2])
        assert len(run_search(small_config(tmp_path, log_path=str(part)), ev)) == 6
        assert part.read_bytes() == full_bytes
        assert "unfinished last line" in capsys.readouterr().err

    def test_complete_last_line_without_newline_is_kept(self, tmp_path, capsys):
        full_cfg = small_config(tmp_path, log_path=str(tmp_path / "full.jsonl"))
        ev, _ = build_evaluator(SYNTH, full_cfg.macro)
        run_search(full_cfg, ev)
        full_bytes = Path(full_cfg.log_path).read_bytes()
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"\n".join(full_bytes.split(b"\n")[:5]))
        calls = []

        def counting(genome):
            calls.append(genome)
            return ev(genome)

        run_search(small_config(tmp_path, log_path=str(part)), counting)
        assert part.read_bytes() == full_bytes
        assert len(calls) == 1
        assert "missing newline" in capsys.readouterr().err

    def test_mid_file_garbage_stays_fatal(self, tmp_path):
        from hwnas.records import LogError

        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(cfg, ev, budget=4)
        lines = Path(cfg.log_path).read_bytes().split(b"\n")
        corrupt = b"\n".join(lines[:2] + [b"{not json"] + lines[2:])
        Path(cfg.log_path).write_bytes(corrupt)
        with pytest.raises(LogError):
            run_search(cfg, ev)
        assert Path(cfg.log_path).read_bytes() == corrupt
        assert not Path(str(cfg.log_path) + ".lock").exists()

    def test_n_init_one_starts_with_two_randoms(self, tmp_path):
        cfg = small_config(tmp_path, budget=6, n_init=1)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        records = run_search(cfg, ev)
        assert len(records) == 6
        assert len({encode(r.genome) for r in records}) == 6

    def test_sources_tagged(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        records = run_search(cfg, ev)
        assert {r.source for r in records} == {"bo"}

    def test_evaluator_failure_skipped_not_budgeted(self, tmp_path):
        cfg = small_config(tmp_path, budget=4, n_init=2)
        calls = {"n": 0}
        macro = cfg.macro
        prof = get_profile("movidius-ncs")

        def flaky(genome):
            calls["n"] += 1
            if calls["n"] <= 4:  # first proposal fails through all retries
                raise RuntimeError("transient device error")
            return synthetic_evaluate(genome, macro, prof)

        records = run_search(cfg, flaky)
        assert len(records) == 4
        entries = read_log(cfg.log_path)
        failures = [e for e in entries if e.get("objectives") is None]
        assert len(failures) == 1
        assert failures[0]["meta"]["failed"] is True
        assert "transient" in failures[0]["meta"]["error"]
        successes, fail_entries = split_log_entries(entries)
        assert len(successes) == 4 and len(fail_entries) == 1
        # the failed genome is never retried later in the run
        failed_enc = encode(decode([v for row in failures[0]["genome"]["blocks"] for v in row]))
        assert failed_enc not in {encode(r.genome) for r in successes}


    # Fails (FAIL) for the first genome it is asked to measure, measures every other; logs each launch.
    ADAPTER_FAILS_FIRST_GENOME = """#!/usr/bin/env python3
import json, pathlib, sys
genome = json.loads(pathlib.Path("request.json").read_text())["genome"]
first = pathlib.Path("first.json")
if not first.exists():
    first.write_text(json.dumps(genome))
with open("launches.txt", "a") as f:
    f.write(json.dumps(genome) + "\\n")
response = {"error": 0.25, "energy_j": 2.0, "time_s": 0.05}
if genome == json.loads(first.read_text()):
    FAIL
pathlib.Path("response.json").write_text(json.dumps(response))
"""

    @pytest.mark.parametrize(
        "fail, attempts, error",
        [
            # A response the adapter wrote after a measurement is not retried: a launch would repeat it.
            ('response["error"] = 1.5', 1, "ResponseError: malformed response: error must be a fraction"),
            ('pathlib.Path("response.json").write_text("{"); sys.exit(0)', 1, "ResponseError: response.json is not valid JSON"),
            ("sys.exit(1)", 1 + EVALUATOR_RETRIES, "EvaluatorError: adapter exited with 1"),
        ],
        ids=["invalid-measurement", "invalid-json", "nonzero-exit"],
    )
    def test_external_failure_attempts(self, tmp_path, fail, attempts, error):
        from test_evaluation import write_adapter

        workdir = tmp_path / "work"
        workdir.mkdir()
        command = write_adapter(workdir, self.ADAPTER_FAILS_FIRST_GENOME.replace("FAIL", fail))
        spec = {"type": "external", "command": command, "workdir": str(workdir), "timeout_s": 30}
        cfg = small_config(tmp_path, budget=2, n_init=2, evaluator=spec)
        ev, _ = build_evaluator(spec, cfg.macro)
        records = run_search(cfg, ev)
        assert len(records) == 2
        successes, failures = split_log_entries(read_log(cfg.log_path))
        assert len(successes) == 2 and len(failures) == 1
        assert failures[0]["meta"]["attempts"] == attempts
        assert failures[0]["meta"]["error"].startswith(error)
        launches = [json.loads(line) for line in (workdir / "launches.txt").read_text().splitlines()]
        first = json.loads((workdir / "first.json").read_text())
        assert failures[0]["genome"] == first
        assert launches.count(first) == attempts
        assert len(launches) == attempts + 2


class TestRunRandom:
    def test_identical_logs_same_seed(self, tmp_path):
        cfg_a = small_config(tmp_path, log_path=str(tmp_path / "a.jsonl"))
        cfg_b = small_config(tmp_path, log_path=str(tmp_path / "b.jsonl"))
        ev, _ = build_evaluator(SYNTH, cfg_a.macro)
        run_random(cfg_a, ev)
        run_random(cfg_b, ev)
        assert Path(cfg_a.log_path).read_bytes() == Path(cfg_b.log_path).read_bytes()

    def test_no_duplicates_and_source(self, tmp_path):
        cfg = small_config(tmp_path, budget=50, n_init=1)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        records = run_random(cfg, ev)
        encs = [encode(r.genome) for r in records]
        assert len(set(encs)) == 50
        assert {r.source for r in records} == {"random"}

    def test_exhaustive_on_one_block_space(self, tmp_path):
        cfg = small_config(tmp_path, budget=256, n_init=1)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        records = run_random(cfg, ev)
        assert len({encode(r.genome) for r in records}) == 256


class TestReevaluate:
    def test_error_component_preserved_with_deterministic_evaluator(self):
        macro = MacroConfig()
        source_prof = get_profile("titanx")
        target_prof = get_profile("movidius-ncs")
        rng = np.random.default_rng(0)
        genomes = [random_genome(rng, 1) for _ in range(20)]
        source = [
            make_record(tuple(synthetic_evaluate(g, macro, source_prof).values()), i=i, genome=g, device="titanx")
            for i, g in enumerate(genomes)
        ]

        def target_eval(g):
            return synthetic_evaluate(g, macro, target_prof)

        report = reevaluate_cross_device(source, None, target_eval, target_device="movidius-ncs")
        for row in report["models"]:
            assert row["target_objectives"]["error"] == pytest.approx(row["source_objectives"]["error"])

    def test_paper_energy_flip(self):
        # Equal error, mutually non-dominated on source via time; energies flip on target.
        g1 = decode([0, 0, 1, 1])
        g2 = decode([0, 1, 1, 1])
        source = [
            make_record((0.23, 508.0, 6.0), i=0, genome=g1, device="titanx"),
            make_record((0.23, 489.0, 8.0), i=1, genome=g2, device="titanx"),
        ]
        target_values = {encode(g1): (0.23, 1.05, 0.03), encode(g2): (0.23, 1.26, 0.05)}

        def target_eval(g):
            return ObjectiveVector(*target_values[encode(g)])

        report = reevaluate_cross_device(source, None, target_eval, target_device="movidius-ncs")
        rows = {tuple(r["genome"]["blocks"][0]): r for r in report["models"]}
        r1 = rows[(0, 0, 1, 1)]
        r2 = rows[(0, 1, 1, 1)]
        assert len(report["models"]) == 2  # both survive the source front
        assert r1["source_objectives"]["energy_j"] > r2["source_objectives"]["energy_j"]
        assert r1["target_objectives"]["energy_j"] < r2["target_objectives"]["energy_j"]
        assert r1["dominated_on_target"] is False
        assert r2["dominated_on_target"] is True

    def test_merges_with_target_log(self):
        g1 = decode([0, 0, 1, 1])
        source = [make_record((0.30, 10.0, 1.0), i=0, genome=g1, device="a")]
        target_log = [make_record((0.10, 0.5, 0.1), i=0, genome=decode([1, 1, 2, 2]), device="b")]

        def target_eval(g):
            return ObjectiveVector(0.30, 1.0, 0.2)

        report = reevaluate_cross_device(source, None, target_eval, target_log, "b")
        assert report["models"][0]["dominated_on_target"] is True
        assert len(report["merged_front"]) == 1

    def test_per_genome_failure_marked(self):
        g1 = decode([0, 0, 1, 1])
        g2 = decode([1, 1, 2, 2])
        source = [
            make_record((0.2, 1.0, 1.0), i=0, genome=g1),
            make_record((0.1, 2.0, 2.0), i=1, genome=g2),
        ]

        def target_eval(g):
            if encode(g) == encode(g1):
                raise RuntimeError("no contact")
            return ObjectiveVector(0.1, 1.0, 1.0)

        report = reevaluate_cross_device(source, None, target_eval)
        rows = {tuple(r["genome"]["blocks"][0]): r for r in report["models"]}
        assert "no contact" in rows[(0, 0, 1, 1)]["error"]
        assert rows[(1, 1, 2, 2)]["target_objectives"] is not None

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            reevaluate_cross_device([], None, lambda g: None)


class TestRunConfig:
    def test_budget_ge_n_init_ge_one(self):
        with pytest.raises(ValueError):
            RunConfig(budget=5, n_init=6)
        with pytest.raises(ValueError):
            RunConfig(budget=5, n_init=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"seed": np.int64(1)},
            {"budget": 20.0},
            {"n_init": "4"},
            {"num_blocks": 2.0},
            {"num_blocks": False},
        ],
    )
    def test_non_int_or_negative_seed_rejected_at_load(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**{"seed": 3, "budget": 20, "n_init": 4, **bad})
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"seed": 3, "budget": 20, "n_init": 4, **bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("evaluator", "synthetic"),
            ("evaluator", ["synthetic"]),
            ("evaluator", None),
            ("log_path", 5),
            ("log_path", ""),
            ("log_path", ["run.jsonl"]),
        ],
    )
    def test_bad_evaluator_or_log_path_rejected_at_load(self, field, bad):
        for load in (lambda d: RunConfig(**d), RunConfig.from_json_dict):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                load({"seed": 3, "budget": 20, "n_init": 4, field: bad})

    @pytest.mark.parametrize(
        "macro, message",
        [
            ({"N": 2.5}, "N must be an int"),
            ({"N": 2.0}, "N must be an int"),
            ({"F": "24"}, "F must be an int"),
            ({"num_reduction_cells": 2.0}, "num_reduction_cells must be an int"),
            ({"num_classes": True}, "num_classes must be an int"),
            ({"input_shape": [32.7, 32, 3]}, "input_shape must hold three ints"),
            ({"input_shape": [32, 32.0, 3]}, "input_shape must hold three ints"),
            ({"input_shape": [32, 32, True]}, "input_shape must hold three ints"),
            ([2, 24], "macro must be a JSON object"),
            ("default", "macro must be a JSON object"),
            (None, "macro must be a JSON object"),
        ],
    )
    def test_bad_macro_rejected_at_load(self, macro, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            RunConfig.from_json_dict({"seed": 3, "budget": 20, "n_init": 4, "macro": macro})

    def test_json_round_trip(self):
        cfg = RunConfig(seed=3, budget=20, n_init=4, objective_subset=("time", "error"))
        back = RunConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg
        assert back.objective_subset == ("error", "time")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"budge": 3})
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"mc_samples": 64})
