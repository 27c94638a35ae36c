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
from .pareto import contenders, hypervolume_improvements, pareto_filter
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
# perfbench/tracing.py rebinds random_genome and enumerate_genomes, so the names stay importable here.
from .search_space import (  # noqa: F401
    ENUMERATION_CAP,
    FIELDS_PER_BLOCK,
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
# record holds it, and resume refuses a log written by another version.
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
    int matrix and :meth:`history_objectives` its objectives in model space,
    each record converted once.  ``excluded`` holds the rank (an int, see
    :func:`~hwnas.search_space.ranks`) of every genome measured or failed;
    none is proposed again.  Warm-up is decided by the caller, which passes
    no models to :func:`propose_next` until it fits them.  ``pool_meta``
    holds the last model-guided proposal's pool sizes, and is empty after a
    warm-up proposal or the empty-pool fallback.
    """

    history: list[EvaluationRecord]
    objective_subset: tuple[str, ...]
    num_blocks: int
    excluded: set[int] = field(default_factory=set)
    pool_meta: dict[str, int] = field(default_factory=dict)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)
    _objectives: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._codes = np.empty((0, FIELDS_PER_BLOCK * self.num_blocks), dtype=np.int64)
        self._objectives = np.empty((0, len(self.objective_subset)))

    def history_codes(self) -> np.ndarray:
        """(len(history), 4 nb) matrix of the history's encoded genomes, in history order."""
        new = self.history[len(self._codes) :]
        if new:
            self._codes = np.vstack([self._codes, [encode(r.genome) for r in new]])
        return self._codes

    def history_objectives(self) -> np.ndarray:
        """(len(history), len(subset)) matrix of the history's transformed objectives, in history order."""
        new = self.history[len(self._objectives) :]
        if new:
            subset = self.objective_subset
            rows = transform_values(objective_matrix(new, subset), subset)
            self._objectives = np.vstack([self._objectives, rows])
        return self._objectives


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
    codes = state.history_codes()
    transformed = state.history_objectives()
    X = gp.featurize_codes(codes)
    # Every objective is fit on the same rows, so their distance table is shared.
    table = gp.hamming_table(codes, codes)
    return {
        name: gp.fit(X, transformed[:, j], seed=seed_key + [j], table=table)
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
) -> CellGenome:
    """Next genome to evaluate.

    Warm-up (no models) proposes a random unevaluated genome.  Otherwise
    the candidate pool is 500 random genomes plus 10 single-field mutations
    of each of up to 50 Pareto genomes (a uniform draw, in history order,
    when the front is larger), minus everything already evaluated; the
    acquisition argmax wins, ties broken by lowest encoding.  The pool's
    sizes go to ``state.pool_meta``.

    ``models`` (one per objective of ``state.objective_subset``) must be fit
    on ``state.history``, in order, as the search loop fits them: the pool is
    scored against the history's codes.
    """
    state.pool_meta = {}
    if models is None:
        return _random_unevaluated(rng, state)

    subset = state.objective_subset
    front = pareto_filter(state.history, subset)
    on_front = {id(r) for r in front}
    front_mask = [id(r) in on_front for r in state.history]
    parents = state.history_codes()[front_mask]
    randoms = random_codes(rng, state.num_blocks, POOL_RANDOM)
    if len(parents) > POOL_PARENTS:
        parents = parents[np.sort(rng.choice(len(parents), POOL_PARENTS, replace=False))]
    mutants = mutate(np.repeat(parents, POOL_MUTATIONS_PER_PARETO, axis=0), rng)
    # Sorted lexicographically, as sorting the encoding tuples would.
    pool = unique_codes(np.vstack([randoms, mutants]))
    pool_ranks = ranks(pool)  # int64, or Python ints past int64: the set's array takes this dtype
    candidates = pool[~np.isin(pool_ranks, np.array(list(state.excluded), dtype=pool_ranks.dtype))]
    if not len(candidates):
        return _random_unevaluated(rng, state)
    state.pool_meta = {
        "front_size": len(front),
        "pool_parents": len(parents),
        "pool_unique": len(pool),
        "pool_candidates": len(candidates),
    }

    history_t = state.history_objectives()
    ref = reference_point(history_t)
    front_t = history_t[front_mask]
    means, stds = _posteriors(models, subset, gp.hamming_table(candidates, state.history_codes()))
    # Duplicate objective rows add nothing to the union of boxes; dedupe for speed.
    front_unique = np.unique(front_t, axis=0) if front_t.shape[0] else front_t
    # Only the rows that can still win are scored; a row's score does not
    # depend on the others, so the first argmax is the whole pool's.
    rows, boxes = contenders(front_unique, ref, means, stds)
    scores = hypervolume_improvements(front_unique, ref, means[rows], stds[rows], boxes=boxes)
    return decode(candidates[rows[int(np.argmax(scores))]], state.num_blocks)


def _config_fingerprint(config: RunConfig, source: str) -> dict:
    return {
        "search": SEARCH_VERSION,
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
        state = SearchState(history=[], objective_subset=subset, num_blocks=config.num_blocks)
        if config.log_path and Path(config.log_path).exists():
            mended = mend_torn_tail(config.log_path)
            if mended:
                print(f"warning: {mended}", file=sys.stderr)
            parsed: list = []
            records, failures = split_log_entries(read_log(config.log_path, parsed), parsed)
            _check_resume(config, records, source)
            state.history = records
            # A failure event parses to the genome that failed.
            genomes = [g.genome if isinstance(g, EvaluationRecord) else g for g in parsed]
            # read_log has checked that every genome has the first one's block count.
            # A log of failures only has no fingerprint, and a rank means nothing in another space.
            blocks = genomes[0].num_blocks if genomes else config.num_blocks
            if blocks != config.num_blocks:
                raise ConfigMismatchError(
                    f"existing log's genomes have {blocks} blocks, config has num_blocks={config.num_blocks}"
                )
            state.excluded = {int(ranks(encode(g))) for g in genomes}

        while len(state.history) < budget:
            iteration = len(state.history)
            rng = np.random.default_rng([config.seed, iteration])

            models = None
            # A GP needs two observations, so n_init = 1 still starts with two randoms.
            if source == SOURCE_BO and iteration >= max(config.n_init, 2):
                models = _fit_models(state, [config.seed, iteration])
            if source == SOURCE_RANDOM:
                genome = _random_unevaluated(rng, state)
            else:
                genome = propose_next(state, models, rng)
            # Measured or failed, it is not proposed again.
            state.excluded.add(int(ranks(encode(genome))))

            objectives, error, attempts = _evaluate_with_retries(evaluator, genome)
            if objectives is None:
                # Budget is not consumed; the genome is excluded, so the
                # deterministic proposal cannot loop on it forever.
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
            meta.update(state.pool_meta)
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
