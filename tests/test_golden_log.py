"""Fixed-seed searches must reproduce the checked-in run logs byte for byte.

The logs under ``tests/data`` were written by the search with closed-form
EHVI as its acquisition, and read the same with one BLAS thread and with the
default thread count.  A change that claims to preserve behaviour must keep
them passing; a change to the search on purpose replaces them, bumps
``optimize.SEARCH_VERSION`` and says so.
"""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwnas import optimize
from hwnas.evaluation import PowerTrace, build_evaluator
from hwnas.optimize import ConfigMismatchError, RunConfig, run_random, run_search

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "b1_noise.jsonl": dict(
        seed=0,
        budget=40,
        n_init=10,
        num_blocks=1,
        evaluator={"type": "synthetic", "profile": "movidius-ncs", "noise": 0.05, "seed": 0},
    ),
    "b2_error_time.jsonl": dict(
        seed=0,
        budget=30,
        n_init=10,
        num_blocks=2,
        objective_subset=("error", "time"),
        evaluator={"type": "synthetic", "profile": "movidius-ncs"},
    ),
    "b5_three.jsonl": dict(
        seed=0,
        budget=30,
        n_init=10,
        num_blocks=5,
        evaluator={"type": "synthetic", "profile": "movidius-ncs"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_log_matches_golden(tmp_path, name):
    log = tmp_path / name
    cfg = RunConfig(log_path=str(log), **GOLDEN[name])
    evaluator, _ = build_evaluator(cfg.evaluator, cfg.macro)
    run_search(cfg, evaluator)
    assert log.read_bytes() == (DATA / name).read_bytes()


def test_resumed_large_front_log_matches_golden(tmp_path, monkeypatch):
    """A 100-record random prefix (n_init = budget), resumed by five model-guided steps.

    Nearly every record is on the front, so each step mutates 50 of its
    members and scores a pool of about 900 candidates against about 115
    boxes, and most of them are ruled out before they are scored.
    """
    pools = []
    contenders = optimize.contenders

    def spy(front, ref, means, stds):
        rows, boxes = contenders(front, ref, means, stds)
        pools.append((len(rows), len(means)))
        return rows, boxes

    monkeypatch.setattr(optimize, "contenders", spy)
    log = tmp_path / "b5_resume.jsonl"
    cfg = RunConfig(
        seed=0,
        budget=100,
        n_init=100,
        num_blocks=5,
        evaluator={"type": "synthetic", "profile": "movidius-ncs"},
        log_path=str(log),
    )
    evaluator, _ = build_evaluator(cfg.evaluator, cfg.macro)
    run_search(cfg, evaluator)
    run_search(replace(cfg, budget=105), evaluator)
    assert log.read_bytes() == (DATA / "b5_resume.jsonl").read_bytes()
    assert len(pools) == 5 and all(kept < pool for kept, pool in pools)


# The external trace path: an adapter answers each request with one of a few
# power traces, so the log pins how the traces are parsed, segmented and
# integrated.  Paths in the evaluator spec are relative to the run directory,
# so the log does not depend on where the test runs.
TRACE_ADAPTER = """import json, pathlib, zlib
k = zlib.crc32(pathlib.Path("request.json").read_bytes()) % {count}
pathlib.Path("response.json").write_text(json.dumps(
    {{"error": {errors}[k], "trace_path": f"../traces/t{{k}}.csv", "threshold_w": 0.45}}))
"""
TRACE_COUNT, TRACE_SAMPLES = 4, 2_000


def write_traces(root: Path) -> list[float]:
    """Seeded traces with a working window above 0.45 W; full-precision times and powers."""
    rng = np.random.default_rng(11)
    (root / "traces").mkdir()
    errors = []
    for k in range(TRACE_COUNT):
        t_ms = np.cumsum(rng.uniform(0.05, 0.15, TRACE_SAMPLES))
        power = rng.uniform(0.1, 0.3, TRACE_SAMPLES)
        start = int(rng.integers(100, 500))
        width = 400 + 300 * k
        power[start : start + width] = rng.uniform(0.6, 1.0, width)
        PowerTrace(t_ms, power).to_csv(root / "traces" / f"t{k}.csv")
        errors.append(float(rng.uniform(0.1, 0.4)))
    return errors


def test_external_trace_log_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    errors = write_traces(tmp_path)
    (tmp_path / "adapter.py").write_text(TRACE_ADAPTER.format(count=TRACE_COUNT, errors=json.dumps(errors)))
    spec = {
        "type": "external",
        "command": ["python3", "../adapter.py"],
        "workdir": "adapter",
        "device": "golden-trace",
    }
    cfg = RunConfig(seed=0, budget=12, num_blocks=2, evaluator=spec, log_path="ext_trace.jsonl")
    evaluator, _ = build_evaluator(cfg.evaluator, cfg.macro)
    run_random(cfg, evaluator)
    assert (tmp_path / "ext_trace.jsonl").read_bytes() == (DATA / "ext_trace.jsonl").read_bytes()


FAILURE_CONFIG = dict(
    seed=0,
    budget=30,
    n_init=10,
    num_blocks=1,
    evaluator={"type": "synthetic", "profile": "movidius-ncs"},
)


def failing_evaluator(cfg: RunConfig):
    """The synthetic evaluator, except that every genome whose rank is 3 mod 6 fails on every attempt."""
    from hwnas.search_space import encode, ranks

    synthetic, _ = build_evaluator(cfg.evaluator, cfg.macro)

    def evaluate(genome):
        rank = int(ranks(encode(genome)))
        if rank % 6 == 3:
            raise RuntimeError(f"device lost on rank {rank}")
        return synthetic(genome)

    return evaluate


def test_failure_event_log_matches_golden(tmp_path):
    """Failure events in warm-up and model-guided steps, two in one iteration among them.

    Resumed from every prefix that ends on a failure event, the run
    appends the same lines.
    """
    log = tmp_path / "b1_failures.jsonl"
    cfg = RunConfig(log_path=str(log), **FAILURE_CONFIG)
    run_search(cfg, failing_evaluator(cfg))
    golden = (DATA / "b1_failures.jsonl").read_bytes()
    assert log.read_bytes() == golden

    lines = golden.decode().splitlines(keepends=True)
    failed = [i for i, line in enumerate(lines) if json.loads(line)["objectives"] is None]
    assert failed and failed[0] < FAILURE_CONFIG["n_init"] < failed[-1] < len(lines) - 1
    for end in failed:
        part = tmp_path / f"part{end}.jsonl"
        part.write_text("".join(lines[: end + 1]))
        run_search(replace(cfg, log_path=str(part)), failing_evaluator(cfg))
        assert part.read_bytes() == golden, f"resumed after line {end + 1}"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cut=st.integers(0, (DATA / "b1_failures.jsonl").stat().st_size))
def test_resume_after_a_cut_at_any_byte(tmp_path_factory, cut):
    """A run killed mid-write leaves any byte prefix of its log; the resume gives the golden bytes."""
    golden = (DATA / "b1_failures.jsonl").read_bytes()
    log = tmp_path_factory.mktemp("cut") / "b1_failures.jsonl"
    log.write_bytes(golden[:cut])
    cfg = RunConfig(log_path=str(log), **FAILURE_CONFIG)
    run_search(cfg, failing_evaluator(cfg))
    assert log.read_bytes() == golden


# Seed 11's first warm-up genome fails, so line 1 is a failure event.
FAILS_FIRST_CONFIG = {**FAILURE_CONFIG, "seed": 11}


def test_fails_first_log_matches_golden(tmp_path):
    """Line 1, a failure event, holds the config's fingerprint; no later line does.

    Resumed from every prefix, the run appends the same lines.
    """
    log = tmp_path / "b1_fails_first.jsonl"
    cfg = RunConfig(log_path=str(log), **FAILS_FIRST_CONFIG)
    run_search(cfg, failing_evaluator(cfg))
    golden = (DATA / "b1_fails_first.jsonl").read_bytes()
    assert log.read_bytes() == golden

    lines = golden.decode().splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    failed = [i for i, entry in enumerate(entries) if entry["objectives"] is None]
    assert failed[0] == 0 and len(failed) > 1
    assert entries[0]["meta"]["seed"] == 11 and entries[0]["meta"]["failed"] is True
    assert not any("search" in entry["meta"] for entry in entries[1:])
    for end in range(len(lines) + 1):
        part = tmp_path / f"part{end}.jsonl"
        part.write_text("".join(lines[:end]))
        run_search(replace(cfg, log_path=str(part)), failing_evaluator(cfg))
        assert part.read_bytes() == golden, f"resumed after line {end}"


@pytest.mark.parametrize(
    "change",
    [
        dict(seed=5),
        dict(evaluator={"type": "synthetic", "profile": "jetson-tx2"}),
        dict(n_init=5),
        dict(num_blocks=2),
    ],
    ids=["seed", "profile", "n_init", "num_blocks"],
)
def test_failures_only_prefix_refused_under_another_config(tmp_path, change):
    """A log holding failure events only is checked against the config as any other log."""
    lines = (DATA / "b1_fails_first.jsonl").read_text().splitlines(keepends=True)
    prefix = "".join(itertools.takewhile(lambda line: json.loads(line)["objectives"] is None, lines))
    assert prefix
    log = tmp_path / "failures.jsonl"
    log.write_text(prefix)
    cfg = RunConfig(log_path=str(log), **{**FAILS_FIRST_CONFIG, **change})
    with pytest.raises(ConfigMismatchError):
        run_search(cfg, failing_evaluator(cfg))
    assert log.read_text() == prefix
    assert not Path(cfg.log_path + ".lock").exists()


def test_failure_on_line_one_without_fingerprint_refused(tmp_path):
    """A failure event on line 1 with no fingerprint, as earlier versions wrote it, is another version's log."""
    first, *rest = (DATA / "b1_fails_first.jsonl").read_text().splitlines(keepends=True)
    entry = json.loads(first)
    entry["meta"] = {key: entry["meta"][key] for key in ("failed", "error", "attempts")}
    old = json.dumps(entry, separators=(",", ":")) + "\n" + "".join(rest)
    log = tmp_path / "old.jsonl"
    log.write_text(old)
    cfg = RunConfig(log_path=str(log), **FAILS_FIRST_CONFIG)
    with pytest.raises(ConfigMismatchError, match="another version of the search.*new log"):
        run_search(cfg, failing_evaluator(cfg))
    assert log.read_text() == old
    assert not Path(cfg.log_path + ".lock").exists()


def test_resumed_state_is_the_live_state(tmp_path, monkeypatch):
    """Resumed from each prefix of ``b1_failures.jsonl``, the first proposal sees the state the live run saw there."""

    class Seen(Exception):
        pass

    def snapshot(state):
        return (
            list(state.history),
            set(state.excluded),
            state.codes.dtype,
            state.codes.shape,
            state.codes.tobytes(),
            state.objectives.shape,
            state.objectives.tobytes(),
        )

    propose_next = optimize.propose_next
    live = []

    def record_live(state, models, rng):
        live.append(snapshot(state))
        return propose_next(state, models, rng)

    cfg = RunConfig(log_path=str(tmp_path / "live.jsonl"), **FAILURE_CONFIG)
    monkeypatch.setattr(optimize, "propose_next", record_live)
    run_search(cfg, failing_evaluator(cfg))
    lines = (DATA / "b1_failures.jsonl").read_bytes().decode().splitlines(keepends=True)
    assert len(live) == len(lines)

    def record_resumed(state, models, rng):
        resumed.append(snapshot(state))
        raise Seen

    monkeypatch.setattr(optimize, "propose_next", record_resumed)
    for end, want in enumerate(live):
        part = tmp_path / f"part{end}.jsonl"
        part.write_text("".join(lines[:end]))
        resumed = []
        with pytest.raises(Seen):
            run_search(replace(cfg, log_path=str(part)), failing_evaluator(cfg))
        assert resumed == [want], f"resumed after line {end}"
