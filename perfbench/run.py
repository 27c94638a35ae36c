"""Benchmark of the hwnas search loop, end to end and layer by layer.

    python3 perfbench/run.py --workload desk-b1 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it prints the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every timed call is checked; a failed check
exits 1.  Without the program's sources next to it, it exits 2 and prints
no result.  DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy is imported: on a 2-core machine one
# thread was both faster and steadier than the default for these fits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from clock import cpu_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-b1", "b5-resume", "ext-random")
SETUP_REPEATS = 3
# The import can be timed only once per process, so it is timed again in fresh interpreters
# and setup_s takes the median: it dominates set-up, and one sample is one draw of its noise.
IMPORT_SAMPLES = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.process_time()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import hwnas, workloads\n"
    "elapsed = time.process_time() - t\n"
    "from speed import burst_scale\n"
    "print(elapsed * burst_scale())\n"
)
# Two calls at least: every run then compares two logs, and a traced run has an untraced partner.
MIN_CALLS = 2

END_TO_END_UNITS = {
    "run_s": "s",
    "iter_s.p50": "s",
    "iter_s.tail": "s",
    "setup_s": "s",
    "hv": "log-hv",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_pinned_by": "perfbench/run.py, before NumPy is imported",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources: together they fix the logs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hwnas").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _check_against_earlier_runs(out_dir: Path, key: str, sha: str) -> list[str]:
    """The log of a workload and seed must be the same in every run of the same sources."""
    record_path = out_dir / "log_sha256.json"
    known = json.loads(record_path.read_text()) if record_path.exists() else {}
    if known.setdefault(key, sha) != sha:
        return [f"log sha256 {sha} differs from {known[key]} of an earlier run of {key}"]
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(record_path)
    return []


def _import_time_in_fresh_interpreter() -> float:
    """Reference-speed time of the benchmark's imports in a new interpreter with this process's environment."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    """This process's resident-memory high-water mark (Linux reports it in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_spans(path: Path, calls: list[list[list]]) -> None:
    fields = ("name", "start", "end", "parent", "iteration", "size")
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(calls):
            for span in spans:
                fh.write(json.dumps({"call": i, **dict(zip(fields, span))}) + "\n")


def _measure(name: str, seed: int, seconds: float, trace: bool):
    """Set up three times, then repeat the timed call for about ``seconds``.

    Returns the set-up times, the memory peak after set-up, every call and
    any failed check.

    Runs inside a fresh work directory, so the paths the program sees are
    relative and the same in every checkout.
    """
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    work = ROOT / ".perfbench_work" / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        setup_runs, fingerprints = [], set()
        for _ in range(SETUP_REPEATS):
            with SpeedProbe() as probe:
                t = probe.net_s()
                prep = workloads.setup(name, seed, Path("setup"))
                elapsed = probe.net_s() - t
            setup_runs.append(elapsed * probe.scale())
            fingerprints.add(prep.fingerprint())
        if len(fingerprints) != 1:
            problems.append(f"{SETUP_REPEATS} set-ups from one seed gave {len(fingerprints)} different inputs")
        setup_peak_mb = _peak_rss_mb()

        # With tracing, the calls alternate untraced and traced.
        reps = []
        start = perf_counter()
        while True:
            tracer = Tracer() if trace and len(reps) % 2 == 1 else None
            reps.append(workloads.run_rep(prep, Path("reps") / f"rep{len(reps)}.jsonl", tracer))
            elapsed = perf_counter() - start
            # Start another call only if it would end, on average, within half a call of the
            # measuring time; the time measured then averages ``seconds``.
            if len(reps) >= MIN_CALLS and elapsed + elapsed / len(reps) / 2 > seconds:
                break
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return setup_runs, setup_peak_mb, reps, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "hwnas" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'hwnas'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = cpu_s()
    import hwnas
    import workloads  # noqa: F401 - imported here so that setup_s includes it

    import_cpu_s = cpu_s() - t
    from speed import burst_scale
    from stats import median, tail
    from tracing import layer_metrics, layer_summary, per_layer_unit

    # The import cannot be probed while it runs (the probe needs NumPy), so a burst right after it scales it.
    import_samples = [import_cpu_s * burst_scale()]
    if Path(hwnas.__file__).resolve().parent != (SRC / "hwnas").resolve():
        print(f"perfbench: imported hwnas from {hwnas.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(seed)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    import_samples += [_import_time_in_fresh_interpreter() for _ in range(IMPORT_SAMPLES - 1)]
    setup_runs, setup_peak_mb, reps, problems = _measure(name, seed, seconds, trace)
    # Each workload runs in a process of its own, so the high-water mark is this workload's.
    peak_rss_mb = _peak_rss_mb()
    for i, rep in enumerate(reps):
        problems += [f"call {i}: {p}" for p in rep.problems]
    shas = {rep.log_sha256 for rep in reps}
    if len(shas) != 1:
        problems.append(f"{len(reps)} calls wrote {len(shas)} different logs")
    if len({rep.hv for rep in reps}) != 1:
        problems.append("hypervolume differs between calls")
    key = f"{name} seed={seed} source={env['source_sha256'][:16]}"
    problems += _check_against_earlier_runs(out_dir, key, reps[0].log_sha256)

    untraced = [rep for rep in reps if rep.tracer is None]
    iters = tail(gap for rep in untraced for gap in rep.gaps)
    end_to_end = {
        "run_s": median(rep.run_s for rep in untraced),
        "iter_s.p50": iters["p50"],
        "iter_s.tail": iters["tail"],
        "setup_s": median(import_samples) + median(setup_runs),
        "hv": reps[0].hv,
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(rep.eval_calls for rep in reps)
    failed = sum(rep.failed_evals for rep in reps) + len(problems)
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "end_to_end": end_to_end,
        "iter_s": {"tail_percentile": iters["tail_percentile"], "samples": iters["samples"]},
        "setup": {"import_s": import_samples, "runs_s": setup_runs, "peak_rss_mb": setup_peak_mb},
        "calls": [
            {
                "traced": rep.tracer is not None,
                "run_s": rep.run_s,
                "cpu_s": rep.cpu_s,
                "scale": rep.scale,
                "wall_s": rep.wall_s,
                "iteration_samples": len(rep.gaps),
                "log_sha256": rep.log_sha256,
                "hv": rep.hv,
            }
            for rep in reps
        ],
        "log_sha256": reps[0].log_sha256,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
    }

    if trace:
        traced_reps = [rep for rep in reps if rep.tracer is not None]
        per_rep = [
            layer_metrics(r.tracer.spans, r.tracer.errors, r.run_s, r.bytes_appended, r.failed_evals)
            for r in traced_reps
        ]
        metrics = {key: median(m[key] for m in per_rep) for key in per_rep[0]}
        metrics["trace.run_s"] = median(rep.run_s for rep in traced_reps)
        # Traced calls are not probed, so they compare with the untraced calls' CPU time.
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median(rep.cpu_s for rep in untraced)
        units = {key: per_layer_unit(key) for key in metrics}
        detail["layers"] = [layer_summary(rep.tracer.spans) for rep in traced_reps]
        spans_path = out_dir / f"spans-{name}-s{seed}.jsonl"
        _write_spans(spans_path, [rep.tracer.spans for rep in traced_reps])
        detail["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    detail["metrics"] = metrics
    detail_path = out_dir / f"{name}-s{seed}-trace{int(trace)}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"perfbench {name} seed={seed} trace={int(trace)}: {len(reps)} timed calls")
    print(f"  environment: {json.dumps(env)}")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:.6g} {units[key]}")
    if trace:
        print("  per-layer times are CPU seconds of the process and its children; traced calls are not probed")
    else:
        print("  times are CPU seconds of the process and its children at the probe's reference speed; see speed.py")
    print(
        f"  untraced calls: median CPU time {median(rep.cpu_s for rep in untraced):.4g} s,"
        f" median scale {median(rep.scale for rep in untraced):.4g}"
    )
    print(f"  iter_s.tail is p{iters['tail_percentile']} of {iters['samples']} iteration samples")
    print(f"  wall time per untraced call: median {median(rep.wall_s for rep in untraced):.4g} s")
    print(f"  log sha256 {reps[0].log_sha256}; failed_frac {detail['failed_frac']:.3g} ({failed} of {attempted})")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    for i, layers in enumerate(detail.get("layers", [])):
        print(f"  traced call {i}: span, count, total s, self s, per-call p50 s, per-call tail s")
        for span_name, row in layers.items():
            print(
                f"    {span_name:<28} {row['count']:>7} {row['total_s']:10.4f} {row['self_s']:10.4f}"
                f" {row['p50_s']:10.6f} {row['tail_s']:10.6f}"
            )
    print(f"  detail: {detail_path.relative_to(ROOT)}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so no workload's memory peak reaches another's."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the inputs are generated from it")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
