"""Multi-objective search loop: acquisition, proposal, runners, cross-device re-evaluation.

Each iteration proposes one genome (random during warm-up, otherwise the
argmax of closed-form expected hypervolume improvement over a candidate
pool), measures it with the configured evaluator, appends the record to the
run log, and refits one GP per objective.  Randomness is re-derived from
(seed, iteration), so interrupted runs resume to byte-identical logs.
"""

from __future__ import annotations

import os
import socket
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import gp
from .evaluation import ResponseError, build_evaluator
from .network import MacroConfig
from .pareto import hypervolume_improvements, pareto_filter
from .records import (
    SOURCE_BO,
    SOURCE_RANDOM,
    SOURCE_REEVAL,
    EvaluationRecord,
    ObjectiveVector,
    append_log_line,
    logical_timestamp,
    mend_torn_tail,
    normalize_subset,
    objective_matrix,
    read_log,
    split_log_entries,
    transform_values,
)
from .search_space import (
    ENUMERATION_CAP,
    FIELDS_PER_BLOCK,
    CellGenome,
    decode,
    encode,
    enumerate_genomes,
    mutate,
    random_codes,
    random_genome,
    search_space_size,
    unique_codes,
)

Evaluator = Callable[[CellGenome], ObjectiveVector]

POOL_RANDOM = 500
POOL_MUTATIONS_PER_PARETO = 10
RANDOM_ATTEMPTS = 200
EVALUATOR_RETRIES = 3


class SearchError(RuntimeError):
    pass


class SpaceExhaustedError(SearchError):
    """Every genome in the space has been evaluated (or failed)."""


class ConfigMismatchError(SearchError):
    """An existing run log was produced with a different configuration."""


class LogLockedError(SearchError):
    """Another run holds the lock on this log path."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one search run; JSON field names match the attributes."""

    seed: int = 0
    budget: int = 400
    n_init: int = 10
    objective_subset: tuple[str, ...] = ("error", "energy", "time")
    macro: MacroConfig = field(default_factory=MacroConfig)
    evaluator: dict = field(default_factory=lambda: {"type": "synthetic", "profile": "movidius-ncs"})
    log_path: str | None = None
    num_blocks: int = 5

    def __post_init__(self) -> None:
        for name in ("seed", "budget", "n_init", "num_blocks"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        build_evaluator(self.evaluator, self.macro)  # refuses a bad spec
        if self.log_path is not None and not (isinstance(self.log_path, str) and self.log_path):
            raise ValueError(f"log_path must be a non-empty string or null, got {self.log_path!r}")
        if not self.budget >= self.n_init >= 1:
            raise ValueError(f"need budget >= n_init >= 1, got {self.budget} / {self.n_init}")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        subset = self.objective_subset
        if subset is not None and not (
            isinstance(subset, (list, tuple)) and all(isinstance(name, str) for name in subset)
        ):
            raise ValueError(f"objective_subset must be a list of objective names, got {subset!r}")
        object.__setattr__(self, "objective_subset", normalize_subset(subset))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "n_init": self.n_init,
            "objective_subset": list(self.objective_subset),
            "macro": self.macro.to_json_dict(),
            "evaluator": self.evaluator,
            "log_path": self.log_path,
            "num_blocks": self.num_blocks,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object (dict), got {d!r}")
        kwargs = dict(d)
        if "macro" in kwargs and not isinstance(kwargs["macro"], MacroConfig):
            kwargs["macro"] = MacroConfig.from_json_dict(kwargs["macro"])
        unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass
class SearchState:
    """Mutable loop state shared with the proposal step.

    ``history`` only grows; :meth:`history_codes` keeps its encodings as an
    int matrix, encoding each record once.  Warm-up is decided by the caller,
    which passes no models to :func:`propose_next` until it fits them.
    """

    history: list[EvaluationRecord]
    objective_subset: tuple[str, ...]
    num_blocks: int
    excluded: set[tuple[int, ...]] = field(default_factory=set)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._codes = np.empty((0, FIELDS_PER_BLOCK * self.num_blocks), dtype=np.int64)

    def history_codes(self) -> np.ndarray:
        """(len(history), 4 nb) matrix of the history's encoded genomes, in history order."""
        new = self.history[len(self._codes) :]
        if new:
            self._codes = np.vstack([self._codes, [encode(r.genome) for r in new]])
        return self._codes


def reference_point(history_values_t: np.ndarray) -> np.ndarray:
    """Reference for hypervolume: componentwise worst observation plus a 10% margin.

    For positive worsts this is worst * 1.1; the magnitude-relative margin
    keeps the reference strictly worse even when log-transformed objectives
    are negative or zero.
    """
    worst = np.max(history_values_t, axis=0)
    return worst + 0.1 * np.maximum(np.abs(worst), 1e-6)


def _fit_models(
    codes: np.ndarray,
    history: list[EvaluationRecord],
    subset: tuple[str, ...],
    seed_key: list[int],
) -> dict[str, gp.GPModel]:
    """One GP per objective on the history, whose encoded genomes are ``codes``."""
    X = gp.featurize_codes(codes)
    transformed = transform_values(objective_matrix(history, subset), subset)
    # Every objective is fit on the same rows, so their distance table is shared.
    table = gp.hamming_table(codes, codes)
    return {
        name: gp.fit(X, transformed[:, j], seed=seed_key + [j], table=table)
        for j, name in enumerate(subset)
    }


def _acquisition_batch(
    models: dict[str, gp.GPModel],
    subset: tuple[str, ...],
    front_t: np.ndarray,
    ref: np.ndarray,
    table: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Exact EHVI of each candidate, from the per-objective posteriors (model space).

    Every model is fit on the same training rows, in order, and ``table`` is
    ``gp.hamming_table(candidates, training codes)``: one distance table
    shared by the posteriors.
    """
    means = np.empty((table[1].shape[0], len(subset)))
    stds = np.empty_like(means)
    for j, name in enumerate(subset):
        mean, var = models[name].predict_table(table)
        means[:, j] = mean
        stds[:, j] = np.sqrt(var)
    # Duplicate objective rows add nothing to the union of boxes; dedupe for speed.
    front_unique = np.unique(front_t, axis=0) if front_t.shape[0] else front_t
    return hypervolume_improvements(front_unique, ref, means, stds)


def _random_unevaluated(
    rng: np.random.Generator,
    excluded: set[tuple[int, ...]],
    num_blocks: int,
) -> CellGenome:
    for _ in range(RANDOM_ATTEMPTS):
        g = random_genome(rng, num_blocks)
        if encode(g) not in excluded:
            return g
    # Small spaces: pick uniformly among the remaining genomes.
    size = search_space_size(num_blocks)
    if size <= ENUMERATION_CAP:
        remaining = [g for g in enumerate_genomes(num_blocks) if encode(g) not in excluded]
        if not remaining:
            raise SpaceExhaustedError(f"all {size} genomes already evaluated")
        return remaining[int(rng.integers(len(remaining)))]
    raise SearchError("could not sample an unevaluated genome")


def propose_next(
    state: SearchState,
    models: dict[str, gp.GPModel] | None,
    rng: np.random.Generator,
) -> CellGenome:
    """Next genome to evaluate.

    Warm-up (no models) proposes a random unevaluated genome.  Otherwise
    the candidate pool is 500 random genomes plus 10 single-field mutations
    of each current Pareto genome, minus everything already evaluated; the
    acquisition argmax wins, ties broken by lowest encoding.

    ``models`` (one per objective of ``state.objective_subset``) must be fit
    on ``state.history``, in order, as the search loop fits them: the pool is
    scored against the history's codes.
    """
    if models is None:
        return _random_unevaluated(rng, state.excluded, state.num_blocks)

    subset = state.objective_subset
    front = pareto_filter(state.history, subset)
    on_front = {id(r) for r in front}
    parents = state.history_codes()[[id(r) in on_front for r in state.history]]
    randoms = random_codes(rng, state.num_blocks, POOL_RANDOM)
    mutants = mutate(np.repeat(parents, POOL_MUTATIONS_PER_PARETO, axis=0), rng)
    # Sorted lexicographically, as sorting the encoding tuples would.
    pool = unique_codes(np.vstack([randoms, mutants]))
    candidates = pool[[enc not in state.excluded for enc in map(tuple, pool.tolist())]]
    if not len(candidates):
        return _random_unevaluated(rng, state.excluded, state.num_blocks)

    ref = reference_point(transform_values(objective_matrix(state.history, subset), subset))
    front_t = transform_values(objective_matrix(front, subset), subset)
    table = gp.hamming_table(candidates, state.history_codes())
    scores = _acquisition_batch(models, subset, front_t, ref, table)
    return decode(candidates[int(np.argmax(scores))], state.num_blocks)


def _config_fingerprint(config: RunConfig, source: str) -> dict:
    return {
        "seed": config.seed,
        "n_init": config.n_init,
        "objective_subset": list(config.objective_subset),
        "num_blocks": config.num_blocks,
        "macro": config.macro.to_json_dict(),
        "evaluator": config.evaluator,
        "mode": source,
    }


def _check_resume(config: RunConfig, records: list[EvaluationRecord], source: str) -> None:
    if not records:
        return
    meta = records[0].meta
    expected = _config_fingerprint(config, source)
    for key, want in expected.items():
        if key == "macro" and key not in meta:
            continue  # written before the macro config joined the fingerprint
        have = meta.get(key)
        if have != want:
            raise ConfigMismatchError(
                f"existing log disagrees with config on {key!r}: log has {have!r}, "
                f"config has {want!r}"
            )
    # read_log has checked that every genome has the first one's block count.
    blocks = records[0].genome.num_blocks
    if blocks != config.num_blocks:
        raise ConfigMismatchError(
            f"existing log's genomes have {blocks} blocks, config has num_blocks={config.num_blocks}"
        )


class _LogLock:
    """Exclusive lock file guarding one run-log path; no-op when logging is off.

    The file holds its owner as ``pid@host``, so a stale lock can be told
    apart from a live one.
    """

    def __init__(self, log_path: str | None):
        self.path = Path(str(log_path) + ".lock") if log_path else None

    def __enter__(self):
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    owner = self.path.read_text(encoding="utf-8", errors="replace").strip()
                except OSError:
                    owner = ""
                raise LogLockedError(
                    f"{self.path} is held by {owner or 'an unknown owner'} "
                    "(remove the lock file if that run is dead)"
                ) from None
            try:
                os.write(fd, f"{os.getpid()}@{socket.gethostname()}\n".encode())
            except OSError:
                self.path.unlink()
                raise
            finally:
                os.close(fd)
        return self

    def __exit__(self, *exc):
        if self.path is not None and self.path.exists():
            self.path.unlink()
        return False


def _evaluate_with_retries(
    evaluator: Evaluator, genome: CellGenome
) -> tuple[ObjectiveVector | None, str | None, int]:
    """(objectives, error, attempts): up to 1 + ``EVALUATOR_RETRIES`` attempts.

    A :class:`ResponseError` is not retried: the measurement was made, and a
    second launch would repeat it.
    """
    for attempt in range(1, 2 + EVALUATOR_RETRIES):
        try:
            return evaluator(genome), None, attempt
        except Exception as exc:  # noqa: BLE001 - any other evaluator failure is retried
            error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, ResponseError):
                break
    return None, error, attempt


def _run(
    config: RunConfig,
    evaluator: Evaluator,
    budget: int | None,
    source: str,
    verbose: bool = False,
) -> list[EvaluationRecord]:
    budget = config.budget if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be >= 1")
    subset = config.objective_subset
    _, device = build_evaluator(config.evaluator, config.macro)

    # The log is read under the lock, so no other run can be appending to it.
    with _LogLock(config.log_path):
        history: list[EvaluationRecord] = []
        excluded: set[tuple[int, ...]] = set()
        if config.log_path and Path(config.log_path).exists():
            mended = mend_torn_tail(config.log_path)
            if mended:
                print(f"warning: {mended}", file=sys.stderr)
            records, failures = split_log_entries(read_log(config.log_path))
            _check_resume(config, records, source)
            history = records
            excluded = {encode(r.genome) for r in records}
            for f in failures:
                excluded.add(encode(CellGenome.from_json_dict(f["genome"])))

        state = SearchState(
            history=history,
            objective_subset=subset,
            num_blocks=config.num_blocks,
            excluded=excluded,
        )

        while len(state.history) < budget:
            iteration = len(state.history)
            rng = np.random.default_rng([config.seed, iteration])

            models = None
            # A GP needs two observations, so n_init = 1 still starts with two randoms.
            if source == SOURCE_BO and iteration >= max(config.n_init, 2):
                models = _fit_models(
                    state.history_codes(), state.history, subset, [config.seed, iteration]
                )
            if source == SOURCE_RANDOM:
                genome = _random_unevaluated(rng, state.excluded, config.num_blocks)
            else:
                genome = propose_next(state, models, rng)

            objectives, error, attempts = _evaluate_with_retries(evaluator, genome)
            if objectives is None:
                # Budget is not consumed; the genome is excluded so the
                # deterministic proposal cannot loop on it forever.
                state.excluded.add(encode(genome))
                if config.log_path:
                    append_log_line(
                        config.log_path,
                        {
                            "iteration": iteration,
                            "source": source,
                            "device": device,
                            "genome": genome.to_json_dict(),
                            "objectives": None,
                            "timestamp": logical_timestamp(iteration),
                            "meta": {"failed": True, "error": error, "attempts": attempts},
                        },
                    )
                if verbose:
                    print(f"[{source}] iteration {iteration}: evaluation failed: {error}")
                continue

            meta = _config_fingerprint(config, source) if iteration == 0 else {}
            record = EvaluationRecord(
                genome=genome,
                objectives=objectives,
                device=device,
                iteration=iteration,
                source=source,
                timestamp=logical_timestamp(iteration),
                meta=meta,
            )
            if config.log_path:
                append_log_line(config.log_path, record.to_json_dict())
            state.history.append(record)
            state.excluded.add(encode(genome))
            if verbose:
                print(
                    f"[{source}] iteration {iteration}: error={objectives.error:.4f} "
                    f"energy={objectives.energy_j:.4g}J time={objectives.time_s:.4g}s"
                )
    return state.history


def run_search(
    config: RunConfig,
    evaluator: Evaluator,
    budget: int | None = None,
    verbose: bool = False,
) -> list[EvaluationRecord]:
    """Model-guided search to the budget; resumes from an existing log if present."""
    return _run(config, evaluator, budget, SOURCE_BO, verbose)


def run_random(
    config: RunConfig,
    evaluator: Evaluator,
    budget: int | None = None,
    verbose: bool = False,
) -> list[EvaluationRecord]:
    """Uniform-random baseline: every proposal is a fresh random genome (no duplicates)."""
    return _run(config, evaluator, budget, SOURCE_RANDOM, verbose)


def reevaluate_cross_device(
    source_records: list[EvaluationRecord],
    source_subset,
    target_evaluator: Evaluator,
    target_records: list[EvaluationRecord] | None = None,
    target_device: str = "target",
) -> dict:
    """Re-measure the source Pareto front on another device and report dominance.

    The source front (over ``source_subset``) is re-evaluated with the target
    evaluator; re-evaluations are merged with any existing target records and
    each source model is flagged if some merged record dominates it there.
    Per-genome evaluator failures are marked, not fatal.
    """
    if not source_records:
        raise ValueError("source log is empty")
    subset = normalize_subset(source_subset)
    front = pareto_filter(source_records, subset)

    reevaluated: list[EvaluationRecord] = []
    rows: list[dict] = []
    for i, rec in enumerate(front):
        row = {
            "genome": rec.genome.to_json_dict(),
            "source_device": rec.device,
            "source_iteration": rec.iteration,
            "source_objectives": rec.objectives.to_json_dict(),
            "target_objectives": None,
            "dominated_on_target": None,
        }
        try:
            objectives = target_evaluator(rec.genome)
        except Exception as exc:  # noqa: BLE001 - per-genome failures are reported
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            reevaluated.append(
                EvaluationRecord(
                    genome=rec.genome,
                    objectives=objectives,
                    device=target_device,
                    iteration=i,
                    source=SOURCE_REEVAL,
                    timestamp=logical_timestamp(i),
                    meta={"source_iteration": rec.iteration, "source_device": rec.device},
                )
            )
            row["target_objectives"] = objectives.to_json_dict()
        rows.append(row)

    merged = reevaluated + list(target_records or [])
    merged_front = pareto_filter(merged, subset)
    merged_front_ids = {id(r) for r in merged_front}
    reeval_iter = iter(reevaluated)
    for row in rows:
        if row["target_objectives"] is None:
            continue
        rec = next(reeval_iter)
        row["dominated_on_target"] = id(rec) not in merged_front_ids

    return {
        "objective_subset": list(subset),
        "target_device": target_device,
        "models": rows,
        "merged_front": [
            {
                "genome": r.genome.to_json_dict(),
                "device": r.device,
                "source": r.source,
                "objectives": r.objectives.to_json_dict(),
            }
            for r in merged_front
        ],
    }
