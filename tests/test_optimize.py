import json
import os
import re
import socket
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwnas import optimize
from hwnas.evaluation import build_evaluator, get_profile, synthetic_evaluate
from hwnas.gp import featurize_batch, fit, hamming_table
from hwnas.network import MacroConfig
from hwnas.optimize import (
    EVALUATOR_RETRIES,
    POOL_MUTATIONS_PER_PARETO,
    POOL_PARENTS,
    SEARCH_VERSION,
    ConfigMismatchError,
    LogLockedError,
    RunConfig,
    SearchState,
    SpaceExhaustedError,
    _config_fingerprint,
    _fit_models,
    _posteriors,
    propose_next,
    reference_point,
    reevaluate_cross_device,
    run_random,
    run_search,
)
from hwnas.pareto import hypervolume_improvements, pareto_filter
from hwnas.records import (
    SOURCE_BO,
    SOURCE_RANDOM,
    EvaluationRecord,
    ObjectiveVector,
    logical_timestamp,
    normalize_subset,
    objective_matrix,
    load_records,
    read_log,
    transform_values,
)
from hwnas.search_space import decode, encode, enumerate_genomes, random_genome, ranks

from test_evaluation import BAD_EVALUATOR_SPECS

SYNTH = {"type": "synthetic", "profile": "movidius-ncs"}


def _without(key, entry):
    return {k: v for k, v in entry.items() if k != key}


def _failure(entry):
    return {**entry, "objectives": None, "meta": {"failed": True}}


# Ways a run-log line can be malformed, each made from a valid record line.
MALFORMED_ENTRIES = {
    "number": lambda rec: 5,
    "list": lambda rec: [rec],
    "string": lambda rec: "record",
    "null": lambda rec: None,
    "record without genome": lambda rec: _without("genome", rec),
    "record without objectives": lambda rec: _without("objectives", rec),
    "record without iteration": lambda rec: _without("iteration", rec),
    "failure without genome": lambda rec: _without("genome", _failure(rec)),
    "failure without iteration": lambda rec: _without("iteration", _failure(rec)),
    "record with a non-object genome": lambda rec: {**rec, "genome": [[0, 0, 1, 1]]},
    "record with an unknown operation": lambda rec: {**rec, "genome": {"blocks": [[0, 0, 9, 1]]}},
    "record with a fractional input": lambda rec: {**rec, "genome": {"blocks": [[0, 1.9, 1, 1]]}},
    "record with a text operation": lambda rec: {**rec, "genome": {"blocks": [[0, 1, "1", 1]]}},
    "record with boolean inputs": lambda rec: {**rec, "genome": {"blocks": [[True, False, 1, 1]]}},
    "record with list objectives": lambda rec: {**rec, "objectives": [0.1, 1.0, 1.0]},
    "record with a text error": lambda rec: {**rec, "objectives": {**rec["objectives"], "error": "low"}},
    "record with a text iteration": lambda rec: {**rec, "iteration": "two"},
    "record with a number for meta": lambda rec: {**rec, "meta": 5},
    "record with a list for meta": lambda rec: {**rec, "meta": [["failed", True]]},
    "record with empty text for meta": lambda rec: {**rec, "meta": ""},
    "failure with a text genome": lambda rec: {**_failure(rec), "genome": "cell"},
    "failure with a null iteration": lambda rec: {**_failure(rec), "iteration": None},
    "failure without device": lambda rec: _without("device", _failure(rec)),
    "failure with a number for meta": lambda rec: {**_failure(rec), "meta": 5},
    # Values of the wrong JSON type are refused, not converted.
    "record with a float iteration": lambda rec: {**rec, "iteration": 2.0},
    "record with a numeral text iteration": lambda rec: {**rec, "iteration": "2"},
    "record with a null device": lambda rec: {**rec, "device": None},
    "record with a number for source": lambda rec: {**rec, "source": 5},
    "record with a number for timestamp": lambda rec: {**rec, "timestamp": 2},
    "record with a numeral text error": lambda rec: {**rec, "objectives": {**rec["objectives"], "error": "0.5"}},
    "record with a boolean time": lambda rec: {**rec, "objectives": {**rec["objectives"], "time_s": True}},
}


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


def rank_set(genomes):
    """The genomes' ranks, as ``SearchState.excluded`` holds them."""
    return {int(ranks(encode(g))) for g in genomes}


def failure_events(genomes):
    """One failure event per genome: records that exclude the genomes and measure nothing."""
    return [
        EvaluationRecord(genome=g, objectives=None, device="dev", iteration=0, source="random",
                         timestamp=logical_timestamp(0), meta={"failed": True})
        for g in genomes
    ]


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

    def test_failure_event_json_round_trip(self):
        failed = replace(make_record((0.2, 1.5, 0.1), i=3), objectives=None, meta={"failed": True})
        d = failed.to_json_dict()
        assert list(d) == ["iteration", "source", "device", "genome", "objectives", "timestamp", "meta"]
        assert d["objectives"] is None
        assert EvaluationRecord.from_json_dict(json.loads(json.dumps(d))) == failed

    def test_non_consecutive_iterations_rejected(self, tmp_path):
        from hwnas.records import LogError, append_log_line

        path = tmp_path / "bad.jsonl"
        for i in (0, 2):
            append_log_line(path, make_record((0.2, 1.0, 1.0), i=i).to_json_dict())
        with pytest.raises(LogError, match=f"^{re.escape(str(path))}:2: "):
            read_log(path)

    def test_read_log_gives_one_record_per_line(self, tmp_path):
        from hwnas.records import append_log_line

        path = tmp_path / "log.jsonl"
        failed = replace(make_record((0.2, 1.0, 1.0), i=1), objectives=None, meta={"failed": True})
        measured = [make_record((0.2, 1.0, 1.0), i=0), make_record((0.3, 0.5, 1.0), i=1)]
        for record in (measured[0], failed, measured[1]):
            append_log_line(path, record.to_json_dict())
        assert read_log(path) == [measured[0], failed, measured[1]]
        assert load_records(path) == measured


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
    """Exact EHVI of one candidate, through the pool's posteriors and scorer with a one-row batch.

    ``models`` are fit on ``records``, in order.
    """
    subset = normalize_subset(models.keys())
    front_t = transform_values(objective_matrix(front, subset), subset)
    if ref is None:
        ref = reference_point(front_t)
    table = hamming_table(np.array([encode(candidate)]), np.array([encode(r.genome) for r in records]))
    means, stds = _posteriors(models, subset, table)
    return float(hypervolume_improvements(front_t, ref, means, stds)[0])


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
        feats = featurize_batch([cand])
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
                            num_blocks=5)
        g, sizes = propose_next(state, None, np.random.default_rng(0))
        assert g.num_blocks == 5 and sizes == {}

    def test_proposals_exclude_evaluated(self):
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        genomes = list(enumerate_genomes(1))
        records = [
            make_record(tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g)
            for i, g in enumerate(genomes[:255])
        ]
        state = SearchState(history=records, objective_subset=normalize_subset(None), num_blocks=1)
        X = featurize_batch([r.genome for r in records])
        T = transform_values(objective_matrix(records), None)
        models = {name: fit(X, T[:, j], seed=j) for j, name in enumerate(normalize_subset(None))}
        g, _ = propose_next(state, models, np.random.default_rng(1))
        assert encode(g) == encode(genomes[255])

    @pytest.mark.parametrize("nb", [5, 7])
    def test_pool_drops_exactly_the_evaluated_genomes(self, monkeypatch, nb):
        # 7 blocks take the object-dtype ranks: the space outgrows int64.
        macro, prof = MacroConfig(), get_profile("movidius-ncs")
        rng = np.random.default_rng(nb)
        genomes = [random_genome(rng, nb) for _ in range(30)]
        records = [make_record(tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g)
                   for i, g in enumerate(genomes)]
        state = SearchState(history=records, objective_subset=normalize_subset(None), num_blocks=nb)
        pools, real_unique_codes = [], optimize.unique_codes

        def kept_pool(codes):
            pools.append(real_unique_codes(codes))
            return pools[-1]

        monkeypatch.setattr(optimize, "unique_codes", kept_pool)
        _, sizes = propose_next(state, _fit_models(state, [0, len(records)]), np.random.default_rng(1))
        evaluated = {encode(g) for g in genomes}
        unevaluated = [row for row in map(tuple, pools[0].tolist()) if row not in evaluated]
        assert len(unevaluated) < len(pools[0])  # some mutants equal their parents
        assert sizes["pool_candidates"] == len(unevaluated)

    def test_space_exhausted(self):
        genomes = list(enumerate_genomes(1))
        state = SearchState(history=failure_events(genomes), objective_subset=normalize_subset(None),
                            num_blocks=1)
        assert state.history == [] and state.excluded == rank_set(genomes)
        with pytest.raises(SpaceExhaustedError):
            propose_next(state, None, np.random.default_rng(0))

    def test_deterministic_proposals(self):
        state = SearchState(history=[], objective_subset=normalize_subset(None),
                            num_blocks=5)
        a, _ = propose_next(state, None, np.random.default_rng(4))
        b, _ = propose_next(state, None, np.random.default_rng(4))
        assert a == b

    @staticmethod
    def listed_random_unevaluated(rng, excluded, num_blocks):
        """Reference: warm-up over decoded genomes and encoding tuples, with a listed small-space fallback."""
        for _ in range(optimize.RANDOM_ATTEMPTS):
            g = random_genome(rng, num_blocks)
            if encode(g) not in excluded:
                return g
        remaining = [g for g in enumerate_genomes(num_blocks) if encode(g) not in excluded]
        if not remaining:
            raise SpaceExhaustedError("exhausted")
        return remaining[int(rng.integers(len(remaining)))]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(left=st.sets(st.integers(0, 255), max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_warm_up_picks_as_the_listed_fallback(self, left, seed):
        # Leaving at most 4 of the 256 genomes, often all 200 draws miss and
        # the fallback picks; leaving none must raise.
        genomes = list(enumerate_genomes(1))
        excluded = [g for i, g in enumerate(genomes) if i not in left]
        state = SearchState(history=failure_events(excluded), objective_subset=normalize_subset(None),
                            num_blocks=1)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = self.listed_random_unevaluated(want_rng, {encode(g) for g in excluded}, 1)
        except SpaceExhaustedError:
            with pytest.raises(SpaceExhaustedError):
                propose_next(state, None, got_rng)
        else:
            assert propose_next(state, None, got_rng) == (want, {})
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize(
        "left, attempts, fit",
        [(range(256), 200, False), ([7, 90], 0, False), (range(0, 256, 2), 200, True)],
        ids=["warm-up", "fallback", "model-guided"],
    )
    def test_a_proposal_decodes_only_the_genome_it_returns(self, monkeypatch, left, attempts, fit):
        monkeypatch.setattr(optimize, "RANDOM_ATTEMPTS", attempts)
        macro, prof = MacroConfig(), get_profile("movidius-ncs")
        genomes = list(enumerate_genomes(1))
        left = set(left)
        records = [
            make_record(tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g)
            for i, g in enumerate(g for j, g in enumerate(genomes) if j not in left)
        ]
        state = SearchState(history=records, objective_subset=normalize_subset(None), num_blocks=1)
        models = _fit_models(state, [0, len(records)]) if fit else None
        decoded, real_decode = [], optimize.decode

        def counted_decode(*args):
            decoded.append(real_decode(*args))
            return decoded[-1]

        monkeypatch.setattr(optimize, "decode", counted_decode)
        for name in ("random_genome", "enumerate_genomes"):
            monkeypatch.setattr(optimize, name, None)
        g, _ = propose_next(state, models, np.random.default_rng(3))
        assert decoded == [g] and genomes.index(g) in left


def random_history_state(n):
    """A state of ``n`` random 5-block records (nearly all on the front) and models fit as the loop fits them."""
    macro = MacroConfig()
    prof = get_profile("movidius-ncs")
    rng = np.random.default_rng(n)
    records = []
    for i in range(n):
        g = random_genome(rng, 5)
        records.append(make_record(tuple(synthetic_evaluate(g, macro, prof).values()), i=i, genome=g))
    state = SearchState(history=records, objective_subset=normalize_subset(None), num_blocks=5)
    models = _fit_models(state, [0, n])
    return state, models


@pytest.mark.parametrize("subset", [None, ("error", "time")])
def test_history_objectives_grow_to_the_transformed_matrix(subset):
    records = [make_record((0.1 + 0.01 * i, 2.0**i, 0.5 / (i + 1) if i else 0.0), i=i) for i in range(12)]
    state = SearchState(history=records[:5], objective_subset=normalize_subset(subset), num_blocks=5)
    assert state.objectives.shape == (5, len(state.objective_subset))
    for record in records[5:]:
        state.add([record])
    expected = transform_values(objective_matrix(records, subset), subset)
    assert state.objectives.tobytes() == expected.tobytes()


@pytest.mark.parametrize("subset", [None, ("error", "time")])
@pytest.mark.parametrize("cuts", [(), (1,), (2, 3), (5, 5, 17), tuple(range(1, 40))])
def test_one_add_is_the_adds_of_its_parts(subset, cuts):
    # b1_failures.jsonl mixes measured records and failure events, two of them in a row.
    entries = read_log(Path(__file__).parent / "data" / "b1_failures.jsonl")
    assert any(e.objectives is None for e in entries)
    whole = SearchState(history=[], objective_subset=normalize_subset(subset), num_blocks=1)
    whole.add(entries)
    parts = SearchState(history=[], objective_subset=normalize_subset(subset), num_blocks=1)
    bounds = (0, *cuts, len(entries))
    for start, end in zip(bounds, bounds[1:]):
        parts.add(entries[start:end])
    assert parts.history == whole.history == [e for e in entries if e.objectives is not None]
    assert parts.excluded == whole.excluded == rank_set(e.genome for e in entries)
    for name in ("codes", "objectives"):
        got, want = getattr(parts, name), getattr(whole, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert whole.codes.tolist() == [list(encode(r.genome)) for r in whole.history]


def test_state_takes_its_exclusions_from_records_alone():
    with pytest.raises(TypeError):
        SearchState(history=[], objective_subset=normalize_subset(None), num_blocks=1, excluded={0})


class TestPoolCap:
    """At most ``POOL_PARENTS`` front members are mutated; a smaller front is mutated whole, with no draw."""

    def test_small_front_draws_nothing(self, monkeypatch):
        state, models = random_history_state(30)
        assert len(pareto_filter(state.history)) <= POOL_PARENTS
        capped_rng = np.random.default_rng(5)
        capped, capped_sizes = propose_next(state, models, capped_rng)
        monkeypatch.setattr(optimize, "POOL_PARENTS", 10**9)
        uncapped_rng = np.random.default_rng(5)
        assert propose_next(state, models, uncapped_rng) == (capped, capped_sizes)
        assert capped_rng.bit_generator.state == uncapped_rng.bit_generator.state
        assert capped_sizes["pool_parents"] == capped_sizes["front_size"] == len(pareto_filter(state.history))

    def test_large_front_mutates_a_draw_of_distinct_members_in_history_order(self, monkeypatch):
        state, models = random_history_state(80)
        front = pareto_filter(state.history)
        assert len(front) > POOL_PARENTS
        seen = []
        mutate = optimize.mutate

        def spy(codes, rng):
            seen.append(np.array(codes))
            return mutate(codes, rng)

        monkeypatch.setattr(optimize, "mutate", spy)
        _, sizes = propose_next(state, models, np.random.default_rng(2))
        (rows,) = seen
        assert rows.shape[0] == POOL_PARENTS * POOL_MUTATIONS_PER_PARETO
        parents = rows[::POOL_MUTATIONS_PER_PARETO]
        assert np.array_equal(rows, np.repeat(parents, POOL_MUTATIONS_PER_PARETO, axis=0))
        position = {encode(r.genome): i for i, r in enumerate(state.history)}
        on_front = {encode(r.genome) for r in front}
        indices = [position[tuple(p)] for p in parents.tolist()]
        assert all(tuple(p) in on_front for p in parents.tolist())
        assert np.all(np.diff(indices) > 0)  # distinct, in history order
        assert sizes["front_size"] == len(front)
        assert sizes["pool_parents"] == POOL_PARENTS

    def test_pool_meta_on_model_guided_records_only(self, tmp_path):
        cfg = small_config(tmp_path, budget=12, n_init=4, num_blocks=2)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(cfg, ev)
        keys = {"front_size", "pool_parents", "pool_unique", "pool_candidates"}
        for line in Path(cfg.log_path).read_text().splitlines():
            entry = json.loads(line)
            meta = entry["meta"]
            if entry["iteration"] < cfg.n_init:
                assert not keys & set(meta)
                continue
            assert keys <= set(meta) and all(type(meta[k]) is int for k in keys)
            assert meta["pool_parents"] == min(meta["front_size"], POOL_PARENTS)
            assert 0 < meta["pool_candidates"] <= meta["pool_unique"]


@pytest.mark.parametrize("kind", ["warm-up", "fallback", "model-guided"])
def test_a_proposal_leaves_the_state_unchanged(monkeypatch, kind):
    """The pool sizes come back with the genome, and empty for warm-up and the empty-pool fallback."""
    state, models = random_history_state(12)
    if kind == "warm-up":
        models = None
    elif kind == "fallback":  # an empty pool leaves no candidate to score
        monkeypatch.setattr(optimize, "unique_codes", lambda codes: codes[:0])

    def snapshot():
        return (
            list(state.history),
            set(state.excluded),
            state.codes.tobytes(),
            state.objectives.tobytes(),
            sorted(vars(state)),
        )

    before = snapshot()
    g, sizes = propose_next(state, models, np.random.default_rng(0))
    assert snapshot() == before
    assert not hasattr(state, "pool_meta")
    assert rank_set([g]).isdisjoint(state.excluded)
    if kind == "model-guided":
        assert set(sizes) == {"front_size", "pool_parents", "pool_unique", "pool_candidates"}
    else:
        assert sizes == {}


def test_proposal_builds_the_boxes_once(monkeypatch):
    from hwnas import pareto

    state, models = random_history_state(40)
    calls = []
    boxes = pareto.dominated_boxes
    monkeypatch.setattr(pareto, "dominated_boxes", lambda *a: calls.append(1) or boxes(*a))
    propose_next(state, models, np.random.default_rng(0))
    assert len(calls) == 1


# One config change per key of a log's fingerprint, each altering that key
# alone.  "search" is changed by raising the program's version, and "mode"
# by resuming with run_random.
FINGERPRINT_CHANGES = {
    "search": {},
    "seed": {"seed": 99},
    "n_init": {"n_init": 2},
    "objective_subset": {"objective_subset": ("error", "time")},
    "num_blocks": {"num_blocks": 2},
    "macro": {"macro": MacroConfig(N=5, F=64)},
    "evaluator": {"evaluator": {**SYNTH, "noise": 0.05}},
    "mode": {},
}


class TestRunSearch:
    def test_budget_reached_and_log_written(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(cfg.evaluator, cfg.macro)
        records = run_search(cfg, ev)
        assert len(records) == 6
        lines = Path(cfg.log_path).read_text().strip().split("\n")
        assert len(lines) == 6
        assert [json.loads(l)["iteration"] for l in lines] == list(range(6))

    def test_logged_device_is_the_evaluator_device(self, tmp_path):
        cfg = small_config(tmp_path, budget=2, n_init=2, evaluator={"type": "synthetic"})
        ev, device = build_evaluator(cfg.evaluator, cfg.macro)
        run_search(cfg, ev)
        assert device == "movidius-ncs"
        assert {e.device for e in read_log(cfg.log_path)} == {"movidius-ncs"}

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
        run_search(replace(cfg, budget=3), ev)
        other = small_config(tmp_path, seed=99)
        with pytest.raises(ConfigMismatchError):
            run_search(other, ev)

    def test_macro_mismatch_refused(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(replace(cfg, budget=3), ev)
        other = replace(cfg, macro=MacroConfig(N=5, F=64))
        with pytest.raises(ConfigMismatchError, match="macro"):
            run_search(other, ev)

    def test_log_without_macro_key_refused_untouched(self, tmp_path):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(replace(cfg, budget=3), ev)
        lines = Path(cfg.log_path).read_text().splitlines()
        first = json.loads(lines[0])
        assert first["meta"].pop("macro") == cfg.macro.to_json_dict()
        assert first["meta"]["search"] == SEARCH_VERSION
        old = "\n".join([json.dumps(first, separators=(",", ":"))] + lines[1:]) + "\n"
        Path(cfg.log_path).write_text(old)
        with pytest.raises(ConfigMismatchError, match="'macro'"):
            run_search(cfg, ev)
        assert Path(cfg.log_path).read_text() == old
        assert not Path(cfg.log_path + ".lock").exists()

    @pytest.mark.parametrize("mode", ["search", "random"])
    @pytest.mark.parametrize("version", [SEARCH_VERSION + 1, SEARCH_VERSION - 1, None])
    def test_log_of_another_search_version_refused_untouched(self, tmp_path, mode, version):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run = run_search if mode == "search" else run_random
        run(replace(cfg, budget=3), ev)
        lines = Path(cfg.log_path).read_text().splitlines()
        first = json.loads(lines[0])
        assert first["meta"]["search"] == SEARCH_VERSION
        if version is None:
            del first["meta"]["search"]  # written before the key existed
        else:
            first["meta"]["search"] = version
        old = "\n".join([json.dumps(first, separators=(",", ":"))] + lines[1:]) + "\n"
        Path(cfg.log_path).write_text(old)
        with pytest.raises(ConfigMismatchError, match="another version of the search.*new log"):
            run(cfg, ev)
        assert Path(cfg.log_path).read_text() == old
        assert not Path(cfg.log_path + ".lock").exists()

    @pytest.mark.parametrize("key", list(_config_fingerprint(RunConfig(), SOURCE_BO)))
    def test_resume_refuses_a_change_to_each_fingerprint_key(self, tmp_path, monkeypatch, key):
        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(replace(cfg, budget=3), ev)
        before = Path(cfg.log_path).read_bytes()
        if key == "search":
            monkeypatch.setattr(optimize, "SEARCH_VERSION", SEARCH_VERSION + 1)
        run = run_random if key == "mode" else run_search
        # A key with no entry fails here.
        changed = replace(cfg, **FINGERPRINT_CHANGES[key])
        with pytest.raises(ConfigMismatchError, match=rf"\b{key}\b"):
            run(changed, ev)
        assert Path(cfg.log_path).read_bytes() == before
        assert not Path(cfg.log_path + ".lock").exists()

    def test_fingerprint_is_the_config_but_budget_and_log_path(self):
        cfg = small_config()
        fields = cfg.to_json_dict()
        assert set(fields) == set(RunConfig.__dataclass_fields__)
        kept = [name for name in fields if name not in ("budget", "log_path")]
        fingerprint = _config_fingerprint(cfg, SOURCE_RANDOM)
        assert list(fingerprint) == ["search", *kept, "mode"]
        assert fingerprint == {"search": SEARCH_VERSION, **{k: fields[k] for k in kept}, "mode": "random"}
        # The key order of every log's first line.
        assert kept == ["seed", "n_init", "objective_subset", "num_blocks", "macro", "evaluator"]

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
        run_search(replace(cfg, budget=4), ev)
        lines = Path(cfg.log_path).read_bytes().split(b"\n")
        corrupt = b"\n".join(lines[:2] + [b"{not json"] + lines[2:])
        Path(cfg.log_path).write_bytes(corrupt)
        with pytest.raises(LogError):
            run_search(cfg, ev)
        assert Path(cfg.log_path).read_bytes() == corrupt
        assert not Path(str(cfg.log_path) + ".lock").exists()

    @pytest.mark.parametrize("name", sorted(MALFORMED_ENTRIES))
    def test_malformed_entry_is_a_log_error_naming_its_line(self, tmp_path, name):
        from hwnas.records import LogError

        cfg = small_config(tmp_path)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        run_search(replace(cfg, budget=4), ev)
        lines = Path(cfg.log_path).read_text().splitlines()
        lines[2] = json.dumps(MALFORMED_ENTRIES[name](json.loads(lines[2])))
        Path(cfg.log_path).write_text("\n".join(lines) + "\n")
        with pytest.raises(LogError, match=f"^{re.escape(cfg.log_path)}:3: "):
            run_search(cfg, ev)
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
        failures = [e for e in entries if e.objectives is None]
        assert len(failures) == 1
        assert failures[0].meta["failed"] is True
        assert "transient" in failures[0].meta["error"]
        successes = load_records(cfg.log_path)
        assert len(successes) == 4 and len(entries) == 5
        # the failed genome is never retried later in the run
        assert failures[0].genome not in {r.genome for r in successes}

    def test_resume_excludes_the_logged_failures(self, tmp_path, monkeypatch):
        from hwnas.records import append_log_line

        cfg = small_config(tmp_path, n_init=1)
        ev, _ = build_evaluator(SYNTH, cfg.macro)
        first = run_search(replace(cfg, budget=1), ev)[0]
        failed_genome = next(g for g in enumerate_genomes(1) if g != first.genome)
        failure = replace(first, iteration=1, genome=failed_genome, objectives=None, meta={"failed": True})
        append_log_line(cfg.log_path, failure.to_json_dict())
        seen = []
        original = optimize._random_unevaluated

        def spy(rng, state):
            seen.append(set(state.excluded))
            return original(rng, state)

        monkeypatch.setattr(optimize, "_random_unevaluated", spy)
        records = run_search(replace(cfg, budget=2), ev)
        assert len(records) == 2
        assert seen[0] == rank_set([first.genome, failed_genome])


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
            (
                'pathlib.Path("trace").mkdir(); response = {"error": 0.25, "trace_path": "trace", "threshold_w": 0.5}',
                1,
                "ResponseError: trace file could not be read",
            ),
            ("sys.exit(1)", 1 + EVALUATOR_RETRIES, "EvaluatorError: adapter exited with 1"),
        ],
        ids=["invalid-measurement", "invalid-json", "trace-is-a-directory", "nonzero-exit"],
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
        entries = read_log(cfg.log_path)
        failures = [e for e in entries if e.objectives is None]
        assert len(entries) == 3 and len(failures) == 1
        assert failures[0].meta["attempts"] == attempts
        assert failures[0].meta["error"].startswith(error)
        launches = [json.loads(line) for line in (workdir / "launches.txt").read_text().splitlines()]
        first = json.loads((workdir / "first.json").read_text())
        assert failures[0].genome.to_json_dict() == first
        assert launches.count(first) == attempts
        assert len(launches) == attempts + 2

    def test_external_device_default_logged_as_requested(self, tmp_path):
        from test_evaluation import ADAPTER_PASSTHROUGH, write_adapter

        workdir = tmp_path / "work"
        workdir.mkdir()
        command = write_adapter(workdir, ADAPTER_PASSTHROUGH)
        spec = {"type": "external", "command": command, "workdir": str(workdir), "timeout_s": 30}
        cfg = small_config(tmp_path, budget=2, n_init=2, evaluator=spec)
        ev, _ = build_evaluator(spec, cfg.macro)
        run_search(cfg, ev)
        request = json.loads((workdir / "request.json").read_text())
        assert request["device"] == "external"
        assert {e.device for e in read_log(cfg.log_path)} == {"external"}


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

        report = reevaluate_cross_device(source, None, target_eval, None, "movidius-ncs")
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

        report = reevaluate_cross_device(source, None, target_eval, None, "movidius-ncs")
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

        report = reevaluate_cross_device(source, None, target_eval, None, "b")
        rows = {tuple(r["genome"]["blocks"][0]): r for r in report["models"]}
        assert "no contact" in rows[(0, 0, 1, 1)]["error"]
        assert rows[(1, 1, 2, 2)]["target_objectives"] is not None

    def test_no_target_record_leaves_an_empty_merged_front(self):
        source = [make_record((0.2, 1.0, 1.0), i=0, genome=decode([0, 0, 1, 1]))]

        def target_eval(g):
            raise RuntimeError("no contact")

        report = reevaluate_cross_device(source, None, target_eval, None, "b")
        assert report["merged_front"] == []
        assert [row["dominated_on_target"] for row in report["models"]] == [None]

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            reevaluate_cross_device([], None, lambda g: None, None, "b")


class TestRunConfig:
    def test_budget_ge_n_init_ge_one(self):
        with pytest.raises(ValueError):
            RunConfig(budget=5, n_init=6)
        with pytest.raises(ValueError):
            RunConfig(budget=5, n_init=0)

    @pytest.mark.parametrize("run", [run_search, run_random])
    def test_the_config_holds_the_only_budget(self, run):
        # A budget passed beside the config could skip the rule above.
        with pytest.raises(TypeError):
            run(small_config(n_init=3), lambda g: None, budget=2)

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
            ("objective_subset", "energy"),
            ("objective_subset", ["error", 1]),
            ("objective_subset", {"error": True}),
        ],
    )
    def test_bad_evaluator_or_log_path_rejected_at_load(self, field, bad):
        for load in (lambda d: RunConfig(**d), RunConfig.from_json_dict):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                load({"seed": 3, "budget": 20, "n_init": 4, field: bad})

    @pytest.mark.parametrize("raw", [[["seed", 2]], "abc", None, 5])
    def test_config_that_is_not_an_object_rejected_at_load(self, raw):
        with pytest.raises(ValueError, match=r"^config must be a JSON object \(dict\), got "):
            RunConfig.from_json_dict(raw)

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
            ({"n": 2}, "unknown macro fields"),
            ({"input_shape": ["32", 32, 3]}, "input_shape must hold three ints"),
            ({"input_shape": [32, 32]}, "input_shape must hold three ints"),
        ],
    )
    def test_bad_macro_rejected_at_load(self, macro, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            RunConfig.from_json_dict({"seed": 3, "budget": 20, "n_init": 4, "macro": macro})

    @pytest.mark.parametrize("spec, message", BAD_EVALUATOR_SPECS)
    def test_bad_evaluator_spec_rejected_at_load(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            RunConfig.from_json_dict({"seed": 3, "budget": 20, "n_init": 4, "evaluator": spec})

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
