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
from .evaluation import DEFAULT_PROFILE, ResponseError, build_evaluator
from .network import MacroConfig
from .pareto import contenders, hypervolume_improvements, non_dominated_mask, pareto_filter
from .records import (
    OBJECTIVE_NAMES,
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
    transform_values,
)
# perfbench/tracing.py rebinds random_genome and enumerate_genomes, so the names stay importable here.
from .search_space import (  # noqa: F401
    ENUMERATION_CAP,
    FIELDS_PER_BLOCK,
    NUM_BLOCKS,
    CellGenome,
    decode,
    encode,
    enumerate_genomes,
    mutate,
    random_codes,
    random_genome,
    ranks,
    search_space_size,
    unique_codes,
    unrank,
)

Evaluator = Callable[[CellGenome], ObjectiveVector]

POOL_RANDOM = 500
POOL_MUTATIONS_PER_PARETO = 10
# Front members mutated per proposal; a larger front gives a uniform draw of this many.
POOL_PARENTS = 50
# Bumped by each declared change to what the search proposes.  A log's first
# line holds it, and resume refuses a log written by another version.
SEARCH_VERSION = 1
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
    objective_subset: tuple[str, ...] = OBJECTIVE_NAMES
    macro: MacroConfig = field(default_factory=MacroConfig)
    evaluator: dict = field(default_factory=lambda: {"type": "synthetic", "profile": DEFAULT_PROFILE})
    log_path: str | None = None
    num_blocks: int = NUM_BLOCKS

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
        # Key order is part of the log format: line 1's fingerprint is this dict (_config_fingerprint).
        return {
            "seed": self.seed,
            "budget": self.budget,
            "n_init": self.n_init,
            "objective_subset": list(self.objective_subset),
            "num_blocks": self.num_blocks,
            "macro": self.macro.to_json_dict(),
            "evaluator": self.evaluator,
            "log_path": self.log_path,
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

    Records enter through :meth:`add` alone, the constructor's ``history``
    included: ``excluded`` is not a constructor argument, so every
    exclusion is a record's.  ``history`` holds the measured records in
    order, ``codes`` their encodings as an int matrix and ``objectives``
    their objectives in model space, one row per record.  ``excluded`` holds
    the rank (an int, see :func:`~hwnas.search_space.ranks`) of every genome
    measured or failed; none is proposed again.  Warm-up is decided by the
    caller, which passes no models to :func:`propose_next` until it fits
    them.  :func:`propose_next` reads the state and writes nothing to it.
    """

    history: list[EvaluationRecord]
    objective_subset: tuple[str, ...]
    num_blocks: int
    excluded: set[int] = field(init=False, default_factory=set)
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    objectives: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        records, self.history = self.history, []
        self.codes = np.empty((0, FIELDS_PER_BLOCK * self.num_blocks), dtype=np.int64)
        self.objectives = np.empty((0, len(self.objective_subset)))
        self.add(records)

    def add(self, records: list[EvaluationRecord]) -> None:
        """Exclude each record's genome; the measured ones also join the history.

        Each genome is encoded once.  A failure event (no objectives) is
        only excluded.
        """
        if not records:
            return
        codes = np.array([encode(r.genome) for r in records], dtype=np.int64)
        self.excluded.update(ranks(codes).tolist())
        kept = [r.objectives is not None for r in records]
        measured = [r for r, keep in zip(records, kept) if keep]
        if measured:
            subset = self.objective_subset
            self.history.extend(measured)
            self.codes = np.vstack([self.codes, codes[kept]])
            self.objectives = np.vstack(
                [self.objectives, transform_values(objective_matrix(measured, subset), subset)]
            )


def reference_point(history_values_t: np.ndarray) -> np.ndarray:
    """Reference for hypervolume: componentwise worst observation plus a 10% margin.

    For positive worsts this is worst * 1.1; the magnitude-relative margin
    keeps the reference strictly worse even when log-transformed objectives
    are negative or zero.
    """
    worst = np.max(history_values_t, axis=0)
    return worst + 0.1 * np.maximum(np.abs(worst), 1e-6)


def _fit_models(state: SearchState, seed_key: list[int]) -> dict[str, gp.GPModel]:
    """One GP per objective of ``state.objective_subset`` on the state's history."""
    X = gp.featurize_codes(state.codes)
    # Every objective is fit on the same rows, so their distance table is shared.
    table = gp.hamming_table(state.codes, state.codes)
    return {
        name: gp.fit(X, state.objectives[:, j], seed=seed_key + [j], table=table)
        for j, name in enumerate(state.objective_subset)
    }


def _posteriors(
    models: dict[str, gp.GPModel],
    subset: tuple[str, ...],
    table: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate posterior means and stds (model space), one column per objective.

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
    return means, stds


def _random_unevaluated(rng: np.random.Generator, state: SearchState) -> CellGenome:
    """A uniform draw outside ``state.excluded``; a small space falls back to the remaining ranks."""
    nb = state.num_blocks
    for _ in range(RANDOM_ATTEMPTS):
        codes = random_codes(rng, nb, 1)[0]  # random_genome's draw
        if int(ranks(codes)) not in state.excluded:
            return decode(codes, nb)
    # Small spaces: pick uniformly among the remaining genomes, in enumeration order.
    size = search_space_size(nb)
    if size <= ENUMERATION_CAP:
        remaining = np.setdiff1d(np.arange(size), list(state.excluded), assume_unique=True)
        if not remaining.size:
            raise SpaceExhaustedError(f"all {size} genomes already evaluated")
        return decode(unrank(remaining[[int(rng.integers(len(remaining)))]], nb)[0], nb)
    raise SearchError("could not sample an unevaluated genome")


def propose_next(
    state: SearchState,
    models: dict[str, gp.GPModel] | None,
    rng: np.random.Generator,
) -> tuple[CellGenome, dict[str, int]]:
    """(next genome to evaluate, the sizes of the pool it won).

    Warm-up (no models) proposes a random unevaluated genome.  Otherwise
    the candidate pool is 500 random genomes plus 10 single-field mutations
    of each of up to 50 Pareto genomes (a uniform draw, in history order,
    when the front is larger), minus everything already evaluated; the
    acquisition argmax wins, ties broken by lowest encoding.  The sizes are
    empty for a warm-up proposal and for the empty-pool fallback.

    ``models`` (one per objective of ``state.objective_subset``) must be fit
    on ``state.history``, in order, as the search loop fits them: the pool is
    scored against the history's codes.
    """
    if models is None:
        return _random_unevaluated(rng, state), {}

    subset = state.objective_subset
    front = pareto_filter(state.history, subset)
    on_front = {id(r) for r in front}
    front_mask = [id(r) in on_front for r in state.history]
    parents = state.codes[front_mask]
    randoms = random_codes(rng, state.num_blocks, POOL_RANDOM)
    if len(parents) > POOL_PARENTS:
        parents = parents[np.sort(rng.choice(len(parents), POOL_PARENTS, replace=False))]
    mutants = mutate(np.repeat(parents, POOL_MUTATIONS_PER_PARETO, axis=0), rng)
    # Sorted lexicographically, as sorting the encoding tuples would.
    pool = unique_codes(np.vstack([randoms, mutants]))
    pool_ranks = ranks(pool)  # int64, or Python ints past int64: the set's array takes this dtype
    candidates = pool[~np.isin(pool_ranks, np.array(list(state.excluded), dtype=pool_ranks.dtype))]
    if not len(candidates):
        return _random_unevaluated(rng, state), {}
    sizes = {
        "front_size": len(front),
        "pool_parents": len(parents),
        "pool_unique": len(pool),
        "pool_candidates": len(candidates),
    }

    ref = reference_point(state.objectives)
    front_t = state.objectives[front_mask]
    means, stds = _posteriors(models, subset, gp.hamming_table(candidates, state.codes))
    # Only the rows that can still win are scored; a row's score does not
    # depend on the others, so the first argmax is the whole pool's.
    rows, boxes = contenders(front_t, ref, means, stds)
    scores = hypervolume_improvements(front_t, ref, means[rows], stds[rows], boxes=boxes)
    return decode(candidates[rows[int(np.argmax(scores))]], state.num_blocks), sizes


def _config_fingerprint(config: RunConfig, source: str) -> dict:
    """Line 1's config keys: the search version, every config field but two, the mode.

    ``budget`` and ``log_path`` do not shape what a run proposes or measures:
    a resumed run may raise its budget, and a log may be moved.
    """
    fields = config.to_json_dict()
    del fields["budget"], fields["log_path"]
    return {"search": SEARCH_VERSION, **fields, "mode": source}


def _check_resume(config: RunConfig, entries: list[EvaluationRecord], source: str) -> None:
    """Refuse a log written under another configuration; an empty log has nothing to check.

    ``read_log`` has checked that every genome has line 1's block count, and
    a rank means nothing in another space, so that count must be the
    config's.  Line 1, measured or failed, holds the fingerprint.
    """
    if not entries:
        return
    first = entries[0]
    if first.genome.num_blocks != config.num_blocks:
        raise ConfigMismatchError(
            f"existing log's genomes have {first.genome.num_blocks} blocks, "
            f"config has num_blocks={config.num_blocks}"
        )
    for key, want in _config_fingerprint(config, source).items():
        have = first.meta.get(key)
        if have == want:
            continue
        if key == "search":
            raise ConfigMismatchError(
                f"existing log was written by another version of the search (log has search "
                f"{have!r}, this program writes {want!r}); start a new log"
            )
        raise ConfigMismatchError(
            f"existing log disagrees with config on {key!r}: log has {have!r}, config has {want!r}"
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
    config: RunConfig, evaluator: Evaluator, source: str, verbose: bool = False
) -> list[EvaluationRecord]:
    subset = config.objective_subset
    _, device = build_evaluator(config.evaluator, config.macro)

    # The log is read under the lock, so no other run can be appending to it.
    with _LogLock(config.log_path):
        state = SearchState(history=[], objective_subset=subset, num_blocks=config.num_blocks)
        if config.log_path and Path(config.log_path).exists():
            mended = mend_torn_tail(config.log_path)
            if mended:
                print(f"warning: {mended}", file=sys.stderr)
            entries = read_log(config.log_path)
            _check_resume(config, entries, source)
            state.add(entries)

        while len(state.history) < config.budget:
            iteration = len(state.history)
            rng = np.random.default_rng([config.seed, iteration])

            models = None
            # A GP needs two observations, so n_init = 1 still starts with two randoms.
            if source == SOURCE_BO and iteration >= max(config.n_init, 2):
                models = _fit_models(state, [config.seed, iteration])
            genome, sizes = propose_next(state, models, rng)

            objectives, error, attempts = _evaluate_with_retries(evaluator, genome)
            record = EvaluationRecord(
                genome=genome,
                objectives=objectives,
                device=device,
                iteration=iteration,
                source=source,
                timestamp=logical_timestamp(iteration),
                # Every record enters state.excluded, so it is empty only before
                # line 1, which holds the config's fingerprint, measured or failed.
                meta={
                    **({} if state.excluded else _config_fingerprint(config, source)),
                    **(sizes if error is None else {"failed": True, "error": error, "attempts": attempts}),
                },
            )
            if config.log_path:
                append_log_line(config.log_path, record.to_json_dict())
            # Measured or failed, the genome is not proposed again.  A failure
            # does not consume budget: the deterministic proposal moves past it.
            state.add([record])
            if verbose and objectives is None:
                print(f"[{source}] iteration {iteration}: evaluation failed: {error}")
            elif verbose:
                print(
                    f"[{source}] iteration {iteration}: error={objectives.error:.4f} "
                    f"energy={objectives.energy_j:.4g}J time={objectives.time_s:.4g}s"
                )
    return state.history


def run_search(config: RunConfig, evaluator: Evaluator, verbose: bool = False) -> list[EvaluationRecord]:
    """Model-guided search to ``config.budget``; resumes from an existing log if present."""
    return _run(config, evaluator, SOURCE_BO, verbose)


def run_random(config: RunConfig, evaluator: Evaluator, verbose: bool = False) -> list[EvaluationRecord]:
    """Uniform-random baseline to ``config.budget``: each proposal a fresh random genome (no duplicates)."""
    return _run(config, evaluator, SOURCE_RANDOM, verbose)


def reevaluate_cross_device(
    source_records: list[EvaluationRecord],
    source_subset,
    target_evaluator: Evaluator,
    target_records: list[EvaluationRecord] | None,
    target_device: str,
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
    on_front = non_dominated_mask(objective_matrix(merged, subset))
    # The re-evaluated records come first in ``merged``, in the order of their rows.
    for row, kept in zip([row for row in rows if row["target_objectives"] is not None], on_front):
        row["dominated_on_target"] = not kept
    merged_front = [r for r, kept in zip(merged, on_front) if kept]

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
