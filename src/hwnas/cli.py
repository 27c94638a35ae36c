"""Command-line interface: search, random, pareto, trace, reeval, enumerate, export."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .evaluation import DeviceProfile, PowerTrace, build_evaluator, get_profile, measure_from_trace
from .network import MacroConfig
from .optimize import RunConfig, reevaluate_cross_device, run_random, run_search
from .pareto import non_dominated_mask, pareto_filter
from .records import load_records, normalize_subset
from .search_space import enumerate_genomes, unrank


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    config = RunConfig.from_json_dict(raw)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.log is not None:
        overrides["log_path"] = args.log
    if overrides:
        config = RunConfig.from_json_dict({**config.to_json_dict(), **overrides})
    if config.log_path is None:
        raise ValueError("a log path is required: set log_path in the config or pass --log")
    return config


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _positive_int(value: str) -> int:
    try:
        if int(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")


def _subset_arg(value: str | None) -> tuple[str, ...]:
    """The ``--objectives`` comma list as a normalized subset; all three when it is not given."""
    return normalize_subset(None if value is None else [v.strip() for v in value.split(",") if v.strip()])


def _run_command(args, runner) -> int:
    config = _load_config(args)
    evaluator, _ = build_evaluator(config.evaluator, config.macro)
    records = runner(config, evaluator, verbose=args.verbose)
    front = pareto_filter(records, config.objective_subset)
    print(
        f"{len(records)} records in {config.log_path}; "
        f"Pareto front over {','.join(config.objective_subset)}: {len(front)} models"
    )
    return 0


def cmd_search(args) -> int:
    return _run_command(args, run_search)


def cmd_random(args) -> int:
    return _run_command(args, run_random)


def cmd_pareto(args) -> int:
    records = load_records(args.log)
    if not records:
        raise ValueError(f"log {args.log} contains no records")
    subset = _subset_arg(args.objectives)

    def front_payload(recs):
        return [
            {
                "iteration": r.iteration,
                "genome": r.genome.to_json_dict(),
                "objectives": r.objectives.to_json_dict(),
            }
            for r in pareto_filter(recs, subset)
        ]

    if args.stride is not None:
        prefixes = list(range(args.stride, len(records) + 1, args.stride))
        if not prefixes or prefixes[-1] != len(records):
            prefixes.append(len(records))
        payload = {
            "objective_subset": list(subset),
            "snapshots": [
                {"records": k, "front": front_payload(records[:k])} for k in prefixes
            ],
        }
    else:
        payload = {"objective_subset": list(subset), "front": front_payload(records)}
    _emit(payload, args.out)
    return 0


def cmd_trace(args) -> int:
    if (args.threshold is None) == (args.profile is None):
        raise ValueError("pass exactly one of --threshold or --profile")
    if args.profile:
        profile = get_profile(args.profile)
    else:
        profile = DeviceProfile(name="custom", threshold_w=args.threshold)
    trace = PowerTrace.from_csv(args.trace)
    _emit(measure_from_trace(trace, profile), args.out)
    return 0


def _evaluator_spec(value: str) -> dict:
    """The spec ``value`` holds as JSON text, or else the one in the file it names.

    A value that starts like a JSON object is never taken as a file name, so
    its parse error is the one reported.
    """
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        if value.lstrip().startswith("{"):
            raise
        return json.loads(Path(value).read_text(encoding="utf-8"))


def cmd_reeval(args) -> int:
    source = load_records(args.log)
    subset = _subset_arg(args.objectives)
    macro = MacroConfig.from_json_dict(json.loads(args.macro)) if args.macro else MacroConfig()
    spec = _evaluator_spec(args.target)
    evaluator, device = build_evaluator(spec, macro)
    target_records = load_records(args.target_log) if args.target_log else None
    report = reevaluate_cross_device(source, subset, evaluator, target_records, device)
    _emit(report, args.out)
    return 0


def cmd_enumerate(args) -> int:
    macro = MacroConfig.from_json_dict(json.loads(args.macro)) if args.macro else MacroConfig()
    evaluator, _ = build_evaluator({"type": "synthetic", "profile": args.profile}, macro)
    measured = [evaluator(g) for g in enumerate_genomes(args.blocks)]
    on_front = non_dominated_mask([o.values() for o in measured])
    # Genome i of the enumeration has rank i.
    codes = unrank(range(len(measured)), args.blocks).tolist()
    rows = [
        {"encoding": c, "objectives": o.to_json_dict(), "is_pareto": p}
        for c, o, p in zip(codes, measured, on_front.tolist())
    ]
    _emit({"num_blocks": args.blocks, "profile": args.profile, "rows": rows}, args.out)
    return 0


def cmd_export(args) -> int:
    records = load_records(args.log)
    if not records:
        raise ValueError(f"log {args.log} contains no records")
    subset = _subset_arg(args.objectives)
    front_ids = {id(r) for r in pareto_filter(records, subset)}
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["iteration", "error", "energy_j", "time_s", "is_pareto"])
        for r in records:
            writer.writerow(
                [
                    r.iteration,
                    r.objectives.error,
                    r.objectives.energy_j,
                    r.objectives.time_s,
                    1 if id(r) in front_ids else 0,
                ]
            )
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwnas",
        description="Multi-objective hardware-aware architecture search over a cell-based CNN space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--budget", type=int, help="override config budget")
        p.add_argument("--log", help="override config log_path (JSONL run log)")
        p.add_argument("--verbose", action="store_true", help="print per-iteration progress")
        p.set_defaults(func=func)

    add_run("search", "model-guided multi-objective search", cmd_search)
    add_run("random", "uniform-random baseline search", cmd_random)

    p = sub.add_parser("pareto", help="extract the Pareto front (optionally per-prefix snapshots)")
    p.add_argument("--log", required=True)
    p.add_argument("--objectives", help="comma list among error,energy,time (default all)")
    p.add_argument(
        "--stride", type=_positive_int, help="emit one front per prefix of stride*i records (stride >= 1)"
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("trace", help="segment a power trace and integrate energy")
    p.add_argument("--trace", required=True, help="CSV file with header t_ms,power_w")
    p.add_argument("--threshold", type=float, help="working/idle threshold in watts")
    p.add_argument("--profile", help="built-in device profile supplying the threshold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reeval", help="re-evaluate a log's Pareto front on another device")
    p.add_argument("--log", required=True, help="source run log")
    p.add_argument("--objectives", help="comma list among error,energy,time (default all)")
    p.add_argument("--target", required=True, help="target evaluator spec (JSON string or file)")
    p.add_argument("--target-log", help="existing run log for the target device")
    p.add_argument("--macro", help="macro config JSON for the target evaluator")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reeval)

    p = sub.add_parser("enumerate", help="exhaustively evaluate a small space synthetically")
    p.add_argument("--blocks", type=int, required=True, help="blocks per cell (1 or 2)")
    p.add_argument("--profile", default="movidius-ncs")
    p.add_argument("--macro", help="macro config JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("export", help="dump a log as plot-ready CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--objectives", help="subset used for the is_pareto column")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
