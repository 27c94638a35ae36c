"""Search-quality sweep: hypervolume of the search and of random, per seed, at two scales.

    python3 tools/quality.py --seeds 1-10
    python3 tools/quality.py --seeds 1-10 --scale paper --src ../other-checkout --jobs 2

For each seed it runs ``run_search`` and ``run_random`` at the desk setup
(acceptance test c07's: 1 block, budget 100, n_init 20, noisy synthetic
evaluator) and at the paper's scale (5 blocks, budget 400, n_init 10,
synthetic ``movidius-ncs``).  The hv is computed as
``perfbench/workloads.run_rep`` computes it: the log-space objectives of every
record against the workload's fixed reference, taken from
``workloads.setup_desk`` (desk) and ``workloads.setup_resume`` (paper scale).

With ``--src``, the search is also run from another checkout's ``src``, so
two versions of the search are paired seed by seed.  It prints hv per seed,
the paired differences and their medians, and each run's CPU seconds.  Every
run is a fresh interpreter with one BLAS thread.  This is not part of
tier-1: a paper-scale search run takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
PAPER_BUDGET, PAPER_N_INIT = 400, 10


def parse_seeds(text: str) -> list[int]:
    """``"1-5,9"`` -> [1, 2, 3, 4, 5, 9]."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_one(src: str, config: dict, mode: str) -> None:
    """Worker: run one search or random baseline from ``src``; print its objectives and CPU time."""
    import time

    sys.path.insert(0, src)
    from hwnas.evaluation import build_evaluator
    from hwnas.optimize import RunConfig, run_random, run_search

    cfg = RunConfig.from_json_dict(config)
    evaluator, _ = build_evaluator(cfg.evaluator, cfg.macro)
    history = (run_search if mode == "search" else run_random)(cfg, evaluator)
    values = [r.objectives.values() for r in history]
    print(json.dumps({"values": values, "cpu_s": time.process_time()}))


def scale(name: str) -> tuple[dict, object]:
    """The run config of a scale, without its seed, and its workload's fixed reference."""
    import workloads

    if name == "desk":
        workload = "desk-b1"
        config = {
            "budget": workloads.DESK_BUDGET,
            "n_init": workloads.DESK_N_INIT,
            "num_blocks": 1,
            "evaluator": workloads.DESK_EVALUATOR,
        }
    else:
        workload = "b5-resume"
        config = {
            "budget": PAPER_BUDGET,
            "n_init": PAPER_N_INIT,
            "num_blocks": 5,
            "evaluator": workloads.RESUME_EVALUATOR,
        }
    # Neither reference depends on the seed.
    with tempfile.TemporaryDirectory() as tmp:
        ref = workloads.setup(workload, 0, Path(tmp) / workload).ref
    return config, ref


def launch(job: tuple) -> dict:
    src, config, mode = job
    out = subprocess.run(
        [sys.executable, __file__, "--worker", src, json.dumps(config), mode],
        capture_output=True,
        text=True,
        check=False,
    )
    if out.returncode:
        raise RuntimeError(f"{mode} run from {src} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9 (default 1-10)")
    parser.add_argument("--scale", choices=("desk", "paper", "both"), default="both")
    parser.add_argument("--src", help="another checkout whose search is paired with this one")
    parser.add_argument("--jobs", type=int, default=1, help="runs at once (default 1)")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, config, mode = args.worker
        run_one(src, json.loads(config), mode)
        return 0

    seeds = parse_seeds(args.seeds)
    here = str(ROOT / "src")
    other = str((Path(args.src) / "src").resolve()) if args.src else None
    sides = [("search", here, "search"), ("random", here, "random")]
    if other:
        sides.append(("other", other, "search"))
    sys.path[:0] = [here, str(ROOT / "perfbench")]
    import numpy as np
    from hwnas.pareto import hypervolume_values
    from hwnas.records import transform_values

    chosen = ("desk", "paper") if args.scale == "both" else (args.scale,)
    for name in chosen:
        config, ref = scale(name)
        jobs = {
            (side, seed): (src, {**config, "seed": seed}, mode)
            for seed in seeds
            for side, src, mode in sides
        }
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            results = dict(zip(jobs, pool.map(launch, jobs.values())))
        hv = {
            key: hypervolume_values(transform_values(np.asarray(r["values"], dtype=float), None), ref)
            for key, r in results.items()
        }
        print(f"\n{name}: {json.dumps(config)}")
        header = "seed    search    random  s-random"
        if other:
            header += "     other   s-other"
        print(header + "   cpu_s (" + ", ".join(side for side, _, _ in sides) + ")")
        for seed in seeds:
            row = f"{seed:4d}  {hv['search', seed]:8.4f}  {hv['random', seed]:8.4f}  "
            row += f"{hv['search', seed] - hv['random', seed]:+8.4f}"
            if other:
                row += f"  {hv['other', seed]:8.4f}  {hv['search', seed] - hv['other', seed]:+8.4f}"
            cpu = ", ".join(f"{results[side, seed]['cpu_s']:.1f}" for side, _, _ in sides)
            print(f"{row}   {cpu}")
        pairs = [("random", "search - random")] + ([("other", "search - other")] if other else [])
        for side, label in pairs:
            diffs = [hv["search", s] - hv[side, s] for s in seeds]
            higher, lower = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
            print(f"{label}: median {np.median(diffs):+.4f}, higher on {higher} and lower on {lower} of {len(seeds)} seeds")
        print("median hv: " + ", ".join(f"{side} {np.median([hv[side, s] for s in seeds]):.4f}" for side, _, _ in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
