"""Tests of the benchmark's own code: tail rule, self time, correctness checks, metadata.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hwnas.evaluation import DeviceProfile, PowerTrace, build_evaluator, measure_from_trace  # noqa: E402
from hwnas.network import MacroConfig  # noqa: E402
from hwnas.search_space import random_genome  # noqa: E402

from checks import check_external, check_log, posix_cksum  # noqa: E402
from clock import cpu_s  # noqa: E402
from speed import MIN_PROBES, PROBE_REF_S, SpeedProbe  # noqa: E402
from stats import tail, tail_permille  # noqa: E402
from tracing import Tracer, layer_metrics, per_layer_unit, self_times, uncovered_time  # noqa: E402
from workloads import EXT_RESPONSES, EXT_THRESHOLD_W, setup_external, synthetic_response  # noqa: E402


@pytest.mark.parametrize(
    "n, permille",
    [(0, None), (19, None), (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, permille):
    assert tail_permille(n) == permille


def test_tail_values_and_fallback():
    samples = list(range(1, 101))  # 100 samples: p90 has exactly 10 beyond
    out = tail(samples)
    assert out["tail_percentile"] == 90.0
    assert sum(s > out["tail"] for s in samples) == 10
    assert out["samples"] == 100
    small = tail([3.0, 1.0, 2.0])
    assert small["tail_percentile"] is None and small["tail"] == small["p50"] == 2.0


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("mid", 1.0, 6.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("leaf", 4.0, 4.5, 1),
        _span("mid", 7.0, 9.0, 0),
        _span("top2", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0, 1.0])
    assert uncovered_time(spans, run_s=13.0) == pytest.approx(2.0)


def test_tracer_nests_spans_and_counts_errors():
    tracer = Tracer()

    def fails():
        raise ValueError("boom")

    inner = tracer.wrap("inner", lambda x: x * 2, size=lambda args, out: out)
    bad = tracer.wrap("bad", fails)

    def body():
        with pytest.raises(ValueError):
            bad()
        return inner(21)

    assert tracer.wrap("outer", body)() == 42
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("bad", 0, None), ("inner", 0, 42)]
    assert tracer.errors == Counter({"bad": 1})


def test_layer_metrics_cover_every_declared_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layer_metrics([], Counter(), run_s=1.0, bytes_appended=0, failures=0)
    names = set(metrics) | {"trace.run_s", "trace.overhead_s"}
    assert names == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert per_layer_unit(m["name"]) == m["unit"]


def _record(iteration, blocks, objectives=(0.2, 0.01, 0.003)):
    return {
        "iteration": iteration,
        "source": "bo",
        "device": "d",
        "genome": {"blocks": blocks},
        "objectives": dict(zip(("error", "energy_j", "time_s"), objectives)),
        "timestamp": "t",
        "meta": {},
    }


def test_check_log_accepts_a_clean_log(tmp_path):
    entries = [_record(0, [[0, 1, 2, 3]]), _record(1, [[1, 1, 2, 3]])]
    assert check_log(entries, 2, tmp_path / "log.lock") == []


def test_check_log_rejects_a_duplicate_genome(tmp_path):
    entries = [_record(0, [[0, 1, 2, 3]]), _record(1, [[0, 1, 2, 3]])]
    problems = check_log(entries, 2, tmp_path / "log.lock")
    assert problems == ["iteration 1: genome evaluated twice"]


def test_check_log_rejects_budget_order_objectives_genome_and_lock(tmp_path):
    lock = tmp_path / "log.lock"
    lock.touch()
    entries = [_record(1, [[0, 1, 2, 3]], (0.2, float("inf"), 0.0)), _record(0, [[0, 5, 2, 3]])]
    problems = check_log(entries, 3, lock)
    assert any("expected 3" in p for p in problems)
    assert any("not 0, 1, 2" in p for p in problems)
    assert any("energy_j" in p for p in problems) and any("time_s" in p for p in problems)
    assert any("invalid genome" in p for p in problems)
    assert any("lock file" in p for p in problems)


def _expected_responses():
    rng = np.random.default_rng(0)
    profile = DeviceProfile("x", threshold_w=EXT_THRESHOLD_W)
    expected = []
    for k in range(EXT_RESPONSES):
        error, t_ms, power = synthetic_response(rng, k)
        measured = measure_from_trace(PowerTrace(t_ms, power), profile)
        expected.append({"error": error, "energy_j": measured["energy_j"], "time_s": measured["time_s"]})
    return expected


def _request(genome):
    return json.dumps({"genome": genome, "device": "x"}, indent=2).encode()


def _numbers(want):
    return (want["error"], want["energy_j"], want["time_s"])


@pytest.mark.skipif(shutil.which("cksum") is None, reason="no cksum program")
@pytest.mark.parametrize("data", [b"", b"123456789", b"hello world\n", bytes(range(256)) * 3])
def test_posix_cksum_matches_the_cksum_program(data):
    out = subprocess.run(["cksum"], input=data, capture_output=True, check=True).stdout
    assert posix_cksum(data) == int(out.split()[0])


def test_check_external_accepts_the_numbers_its_request_selects():
    expected = _expected_responses()
    genome = {"blocks": [[0, 1, 2, 3]]}
    request = _request(genome)
    want = expected[posix_cksum(request) % EXT_RESPONSES]
    entries = [_record(0, genome["blocks"], _numbers(want))]
    assert check_external(entries, [(genome, request)], expected) == []


def test_check_external_rejects_numbers_that_do_not_match_the_trace():
    expected = _expected_responses()
    genome = {"blocks": [[0, 1, 2, 3]]}
    request = _request(genome)
    error, energy, time = _numbers(expected[posix_cksum(request) % EXT_RESPONSES])
    entries = [_record(0, genome["blocks"], (error, energy * 1.01, time))]
    problems = check_external(entries, [(genome, request)], expected)
    assert len(problems) == 1 and "energy_j" in problems[0]


def test_check_external_rejects_a_response_left_over_from_an_earlier_request(tmp_path, monkeypatch):
    """An adapter that writes nothing leaves the previous response.json for the program to read."""
    monkeypatch.chdir(tmp_path)
    prep = setup_external(1, Path("setup"))
    rng = np.random.default_rng(0)
    first = random_genome(rng, 5)
    first_values = prep.evaluator(first).values()
    first_request = prep.request_path.read_bytes()
    silent, _ = build_evaluator(dict(prep.config.evaluator, command=["true"]), MacroConfig())
    while True:
        second = random_genome(rng, 5)
        second_values = silent(second).values()
        second_request = prep.request_path.read_bytes()
        if posix_cksum(second_request) % EXT_RESPONSES != posix_cksum(first_request) % EXT_RESPONSES:
            break
    assert second_values == first_values  # the program read the stale response
    genomes = [first.to_json_dict(), second.to_json_dict()]
    entries = [_record(0, genomes[0]["blocks"], first_values), _record(1, genomes[1]["blocks"], second_values)]
    requests = [(genomes[0], first_request), (genomes[1], second_request)]
    problems = check_external(entries, requests, prep.expected)
    assert problems and all(p.startswith("iteration 1:") for p in problems)


def test_speed_probe_leaves_its_own_time_out_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe:
        cpu0, net0 = cpu_s(), probe.net_s()
        while probe.count < 3:
            sum(i * i for i in range(10_000))
        cpu, net = cpu_s() - cpu0, probe.net_s() - net0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < probe.timed_s < probe.total_s
    assert net == pytest.approx(cpu - probe.total_s, abs=1e-3)


def test_speed_probe_scale_tops_up_to_the_minimum_probes():
    probe = SpeedProbe()
    scale = probe.scale()
    assert probe.count == MIN_PROBES
    assert scale == pytest.approx(PROBE_REF_S * MIN_PROBES / probe.timed_s)


def test_speed_probe_scales_each_span_by_the_probes_near_it():
    probe = SpeedProbe()
    # 20 probes at 0.05, 0.15, ..., 1.95 s: the first ten at the reference speed, the rest half as fast.
    probe.samples = [(0.05 + 0.1 * i, PROBE_REF_S * (1 if i < 10 else 2)) for i in range(20)]
    probe.count = 20
    probe.timed_s = 30 * PROBE_REF_S
    scales = probe.local_scales([0.0, 0.1, 1.9, 10.0, 11.0])
    # Spans near the fast probes, across all of them, near the slow ones, and far from every probe.
    assert scales == pytest.approx([1.0, 20 / 30, 0.5, 20 / 30])


def test_benchmark_json_matches_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["desk-b1", "b5-resume", "ext-random"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in spec["end_to_end"]) == setup[0]["bound"] <= 0.25
