"""The benchmark workloads: set-up from the seed, one timed call, and its checks.

Paths are relative: the benchmark runs with its per-run work directory as
the current directory, so run logs (which record the evaluator spec) do not
depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hwnas.cli import main as cli_main
from hwnas.evaluation import DeviceProfile, PowerTrace, build_evaluator, measure_from_trace
from hwnas.network import MacroConfig
from hwnas.optimize import RunConfig, reference_point, run_random, run_search
from hwnas.pareto import hypervolume_values
from hwnas.records import transform_values
from hwnas.search_space import enumerate_genomes, random_genome

from checks import check_external, check_log, check_prefix, parse_log
from clock import cpu_s
from speed import SpeedProbe
from tracing import Tracer, traced

# desk-b1: the setup of acceptance test c07 (1 block, budget 100, n_init 20).
DESK_EVALUATOR = {"type": "synthetic", "profile": "movidius-ncs", "noise": 0.05, "seed": 0}
DESK_BUDGET, DESK_N_INIT = 100, 20

# b5-resume: a P-record random prefix, then K BO iterations resumed from it.
RESUME_EVALUATOR = {"type": "synthetic", "profile": "movidius-ncs"}
RESUME_PREFIX, RESUME_STEPS = 100, 5
RESUME_REF_SAMPLES = 256

# ext-random: run_random through the external file protocol.
EXT_BUDGET = 150
EXT_RESPONSES = 8
EXT_TRACE_SAMPLES = 50_000
EXT_THRESHOLD_W = 0.45
# The adapter: no Python start-up, the response chosen by the checksum of the request.
EXT_ADAPTER = f'set -- $(cksum < request.json) && cp "../responses/r$(($1 % {EXT_RESPONSES})).json" response.json'

# Stream tags keep the benchmark's own draws apart from the program's (seed, iteration) streams.
REF_STREAM, TRACE_STREAM = 7_001, 7_002


@dataclass
class Prepared:
    """Everything a timed call needs, built by a workload's set-up from the seed."""

    config: RunConfig
    runner: Callable
    evaluator: Callable
    ref: np.ndarray
    counted_from: int
    prefix: bytes = b""
    expected: list[dict] = field(default_factory=list)
    request_path: Path | None = None

    def fingerprint(self) -> str:
        """Digest of the set-up's outputs; repeated set-ups must agree."""
        payload = json.dumps([self.ref.tolist(), self.expected], sort_keys=True).encode() + self.prefix
        return hashlib.sha256(payload).hexdigest()


@dataclass
class Rep:
    """One timed call: its timings and the verdict of its checks.

    An untraced call runs under a ``SpeedProbe``: ``run_s`` and ``gaps`` are in
    reference-speed seconds, ``cpu_s`` is the CPU time without the probes, and
    ``scale`` converts it into ``run_s``.  Each gap has a scale of its own, from
    the probes near it.  A traced call is not probed, so
    that no probe lands inside a span; its times are plain CPU seconds.
    """

    run_s: float
    cpu_s: float
    scale: float
    wall_s: float
    gaps: list[float]
    log_sha256: str
    hv: float
    problems: list[str]
    eval_calls: int
    failed_evals: int
    bytes_appended: int
    tracer: Tracer | None = None


def _log_space_reference(values) -> np.ndarray:
    return reference_point(transform_values(np.asarray(values, dtype=float), None))


def setup_desk(seed: int, workdir: Path) -> Prepared:
    evaluator, _ = build_evaluator(DESK_EVALUATOR, MacroConfig())
    # c07's reference: the worst of the enumerated 1-block space plus the 10% margin.
    ref = _log_space_reference([evaluator(g).values() for g in enumerate_genomes(1)])
    config = RunConfig(
        seed=seed, budget=DESK_BUDGET, n_init=DESK_N_INIT, num_blocks=1, evaluator=DESK_EVALUATOR
    )
    return Prepared(config, run_search, evaluator, ref, counted_from=DESK_N_INIT)


def setup_resume(seed: int, workdir: Path) -> Prepared:
    evaluator, _ = build_evaluator(RESUME_EVALUATOR, MacroConfig())
    # A reference from the seed would move hv by up to 30% between seeds; this one is fixed.
    rng = np.random.default_rng(REF_STREAM)
    ref = _log_space_reference(
        [evaluator(random_genome(rng, 5)).values() for _ in range(RESUME_REF_SAMPLES)]
    )
    # The prefix is the program's own random phase (n_init = budget = P), written via the CLI.
    prefix_config = RunConfig(
        seed=seed,
        budget=RESUME_PREFIX,
        n_init=RESUME_PREFIX,
        num_blocks=5,
        evaluator=RESUME_EVALUATOR,
        log_path=str(workdir / "prefix.jsonl"),
    )
    config_path = workdir / "prefix-config.json"
    config_path.write_text(json.dumps(prefix_config.to_json_dict()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["search", "--config", str(config_path)])
    if status != 0:
        raise RuntimeError(f"hwnas search exited with {status} while writing the prefix")
    prefix = (workdir / "prefix.jsonl").read_bytes()
    config = replace(prefix_config, budget=RESUME_PREFIX + RESUME_STEPS, log_path=None)
    return Prepared(config, run_search, evaluator, ref, counted_from=RESUME_PREFIX, prefix=prefix)


def synthetic_response(rng: np.random.Generator, k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Response ``k``: an error and a 0.1 ms power trace with one working window.

    Idle power stays below the threshold and working power above it.  Error
    falls and the window grows with ``k``, so the 8 responses form a front;
    the seed jitters them slightly and draws the sample noise, which keeps
    hv nearly the same across seeds.
    """
    error = round(0.33 - 0.04 * k + float(rng.uniform(-0.002, 0.002)), 6)
    t_ms = np.round(np.arange(EXT_TRACE_SAMPLES) * 0.1, 1)
    power = rng.uniform(0.15, 0.35, EXT_TRACE_SAMPLES)
    start = int(rng.integers(2_000, 10_000))
    width = 12_000 + 3_000 * k + int(rng.integers(-300, 300))
    power[start : start + width] = rng.uniform(0.78, 0.82) + rng.uniform(-0.1, 0.1, width)
    return error, t_ms, np.round(power, 6)


def setup_external(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, TRACE_STREAM])
    for sub in ("traces", "responses", "adapter"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    profile = DeviceProfile(name="perfbench-trace", threshold_w=EXT_THRESHOLD_W)
    expected = []
    for k in range(EXT_RESPONSES):
        error, t_ms, power = synthetic_response(rng, k)
        # Written row by row, so that set-up does not raise the memory peak the calls are measured by.
        with open(workdir / "traces" / f"t{k}.csv", "w", encoding="utf-8") as fh:
            fh.write("t_ms,power_w\n")
            fh.writelines(f"{t!r},{p!r}\n" for t, p in zip(t_ms.tolist(), power.tolist()))
        trace_path = f"../traces/t{k}.csv"
        response = {"error": error, "trace_path": trace_path, "threshold_w": EXT_THRESHOLD_W}
        (workdir / "responses" / f"r{k}.json").write_text(json.dumps(response), encoding="utf-8")
        measured = measure_from_trace(PowerTrace(t_ms, power), profile)
        expected.append({"error": error, "energy_j": measured["energy_j"], "time_s": measured["time_s"]})
    ref = _log_space_reference([[v["error"], v["energy_j"], v["time_s"]] for v in expected])
    spec = {
        "type": "external",
        "command": ["sh", "-c", EXT_ADAPTER],
        "workdir": str(workdir / "adapter"),
        "device": profile.name,
    }
    evaluator, _ = build_evaluator(spec, MacroConfig())
    config = RunConfig(seed=seed, budget=EXT_BUDGET, num_blocks=5, evaluator=spec)
    return Prepared(
        config,
        run_random,
        evaluator,
        ref,
        counted_from=0,
        expected=expected,
        request_path=workdir / "adapter" / "request.json",
    )


WORKLOADS = {"desk-b1": setup_desk, "b5-resume": setup_resume, "ext-random": setup_external}


def setup(name: str, seed: int, workdir: Path) -> Prepared:
    """Build a workload's inputs in a fresh ``workdir``."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, workdir)


def run_rep(prep: Prepared, log_path: Path, tracer: Tracer | None = None) -> Rep:
    """Run the timed call once into ``log_path`` and check what it wrote."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    if prep.prefix:
        log_path.write_bytes(prep.prefix)
    config = replace(prep.config, log_path=str(log_path))
    first_iteration = len(prep.prefix.splitlines())
    returns: list[float] = []
    requests: list[tuple[dict, bytes]] = []
    errors = 0
    probe = SpeedProbe() if tracer is None else None
    clock = probe.net_s if probe is not None else cpu_s

    def evaluate(genome):
        nonlocal errors
        try:
            objectives = prep.evaluator(genome)
        except Exception:
            errors += 1
            raise
        if prep.request_path is not None:
            requests.append((genome.to_json_dict(), prep.request_path.read_bytes()))
        returns.append(clock())
        if tracer is not None:
            tracer.iteration += 1
        return objectives

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.iteration = first_iteration
            stack.enter_context(traced(tracer))
            evaluate = tracer.wrap("evaluation.eval", evaluate)
        else:
            stack.enter_context(probe)
        wall0, t0 = perf_counter(), clock()
        history = prep.runner(config, evaluate)
        call_cpu_s, wall_s = clock() - t0, perf_counter() - wall0
    scale = probe.scale() if probe is not None else 1.0

    raw = log_path.read_bytes()
    entries = parse_log(raw)
    budget = prep.config.budget
    problems = check_log(entries, budget, Path(str(log_path) + ".lock"))
    if len(history) != budget:
        problems.append(f"the call returned {len(history)} records, expected {budget}")
    if prep.prefix:
        problems += check_prefix(raw, prep.prefix)
    if prep.request_path is not None:
        problems += check_external(entries, requests, prep.expected)
    records = [e for e in entries if e.get("objectives") is not None]
    values = [[r["objectives"][k] for k in ("error", "energy_j", "time_s")] for r in records]
    hv = hypervolume_values(transform_values(np.asarray(values, dtype=float).reshape(-1, 3), None), prep.ref)

    gaps = np.diff([t0] + returns)
    if probe is not None:
        gaps = gaps * probe.local_scales([t0] + returns)
    gaps = gaps.tolist()
    return Rep(
        run_s=call_cpu_s * scale,
        cpu_s=call_cpu_s,
        scale=scale,
        wall_s=wall_s,
        gaps=gaps[max(0, prep.counted_from - first_iteration) :],
        log_sha256=hashlib.sha256(raw).hexdigest(),
        hv=hv,
        problems=problems,
        eval_calls=len(returns) + errors,
        failed_evals=len(entries) - len(records),
        bytes_appended=len(raw) - len(prep.prefix),
        tracer=tracer,
    )
