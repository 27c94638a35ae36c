"""Spans around the public functions of each hwnas layer, and their per-layer metrics.

Tracing rebinds each function at the place where the search loop looks it
up (``optimize.py`` binds most names at import, so they are rebound in
``hwnas.optimize``), records one span per call in memory, and restores the
originals on exit.  Nothing inside ``src/hwnas`` is changed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager

from clock import cpu_s
from stats import median, tail

# A span is [name, start, end, parent index or -1, iteration, size or None].
NAME, START, END, PARENT, ITERATION, SIZE = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded timed call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.iteration = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording a span per call; ``size(args, result)`` is stored with it."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.iteration, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = cpu_s()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                span[END] = cpu_s()
                self._stack.pop()
            if size is not None:
                span[SIZE] = size(args, out)
            return out

        return traced


def _targets():
    """(owner, attribute, span name, size) for every traced public function."""
    from hwnas import evaluation, gp, optimize, pareto

    def count(args, out):
        return len(out)

    return [
        (optimize, "propose_next", "optimize.propose", None),
        (optimize, "pareto_filter", "pareto.filter", count),
        (optimize, "hypervolume_improvements", "pareto.hvi", count),
        (optimize, "append_log_line", "records.append", None),
        (optimize, "read_log", "records.read", count),
        (optimize, "random_genome", "search_space.random_genome", None),
        (optimize, "mutate", "search_space.mutate", None),
        (optimize, "enumerate_genomes", "search_space.enumerate", None),
        (gp, "fit", "gp.fit", lambda args, out: out.n),
        (gp, "featurize_batch", "gp.featurize", count),
        (gp, "cholesky", "gp.cholesky", None),
        (gp.GPModel, "predict_features", "gp.predict", lambda args, out: len(out[0])),
        (pareto, "dominated_boxes", "pareto.boxes", count),
        (evaluation, "build_network", "network.build", None),
        (evaluation, "external_evaluate", "evaluation.external", None),
        (evaluation.PowerTrace, "from_csv", "evaluation.trace_parse", lambda args, out: len(out.t_ms)),
        (evaluation, "segment_trace", "evaluation.segment", None),
        (evaluation, "integrate_energy", "evaluation.integrate", None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function to a span-recording wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, size in _targets():
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, size)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, size))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; summing their durations gives the covered time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def uncovered_time(spans: list[list], run_s: float) -> float:
    """Time of the timed call that no top-level span covers."""
    return run_s - sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def layer_summary(spans: list[list]) -> dict:
    """Per span name: call count, total and self seconds, per-call p50 and tail, total size."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_total: Counter = Counter()
    size_total: Counter = Counter()
    for span, own in zip(spans, selfs):
        durations[span[NAME]].append(span[END] - span[START])
        self_total[span[NAME]] += own
        size_total[span[NAME]] += span[SIZE] or 0
    out = {}
    for name in sorted(durations):
        per_call = tail(durations[name])
        out[name] = {
            "count": len(durations[name]),
            "total_s": sum(durations[name]),
            "self_s": self_total[name],
            "p50_s": per_call["p50"],
            "tail_s": per_call["tail"],
            "tail_percentile": per_call["tail_percentile"],
            "size_total": size_total[name],
        }
    return out


_UNITS = {"gp.cholesky_calls": "count/fit", "optimize.pool_unique_ratio": "ratio", "records.bytes_appended": "B"}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric: seconds for timings, counts otherwise."""
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith("_s") or "_s." in name else "count"


def _children_of(spans, parent_name, child_name):
    return [s for s in spans if s[NAME] == child_name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name]


def layer_metrics(spans: list[list], errors: Counter, run_s: float, bytes_appended: int, failures: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, for one traced timed call."""
    layers = layer_summary(spans)
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0, "size_total": 0}

    def layer(name):
        return layers.get(name, empty)

    fits = [s for s in spans if s[NAME] == "gp.fit"]
    fit_times = tail(s[END] - s[START] for s in fits)
    draws = layer("search_space.random_genome")["count"] + layer("search_space.mutate")["count"]
    pool_draws = len(_children_of(spans, "optimize.propose", "search_space.random_genome")) + len(
        _children_of(spans, "optimize.propose", "search_space.mutate")
    )
    pool_candidates = sum(s[SIZE] for s in _children_of(spans, "optimize.propose", "gp.featurize"))
    return {
        "gp.fit_s.p50": fit_times["p50"],
        "gp.fit_s.tail": fit_times["tail"],
        "gp.fit_n": median(s[SIZE] for s in fits),
        "gp.fit_calls": len(fits),
        "gp.cholesky_calls": layer("gp.cholesky")["count"] / len(fits) if fits else 0.0,
        "gp.cholesky_retries": errors["gp.cholesky"],
        "gp.predict_s": layer("gp.predict")["total_s"],
        "gp.predict_rows": layer("gp.predict")["size_total"],
        "gp.featurize_s": layer("gp.featurize")["total_s"],
        "pareto.boxes_s": layer("pareto.boxes")["total_s"],
        "pareto.box_count": median(s[SIZE] for s in spans if s[NAME] == "pareto.boxes"),
        "pareto.hvi_s": layer("pareto.hvi")["total_s"],
        "pareto.hvi.self_s": layer("pareto.hvi")["self_s"],
        "pareto.hvi_samples": layer("pareto.hvi")["size_total"],
        "pareto.filter_s": layer("pareto.filter")["total_s"],
        "pareto.front_size": median(s[SIZE] for s in spans if s[NAME] == "pareto.filter"),
        "optimize.propose_s": layer("optimize.propose")["total_s"],
        "optimize.propose.self_s": layer("optimize.propose")["self_s"],
        "optimize.pool_candidates": pool_candidates,
        "optimize.pool_unique_ratio": pool_candidates / pool_draws if pool_draws else 0.0,
        "optimize.fallback_enumerations": layer("search_space.enumerate")["count"],
        "search_space.draws": draws,
        "search_space.draw_s": layer("search_space.random_genome")["total_s"] + layer("search_space.mutate")["total_s"],
        "evaluation.eval_s": layer("evaluation.eval")["total_s"],
        "evaluation.eval_calls": layer("evaluation.eval")["count"],
        "evaluation.failures": failures,
        "evaluation.retries": errors["evaluation.eval"],
        "evaluation.trace_parse_s": layer("evaluation.trace_parse")["total_s"],
        "evaluation.trace_samples": layer("evaluation.trace_parse")["size_total"],
        "evaluation.segment_s": layer("evaluation.segment")["total_s"],
        "evaluation.integrate_s": layer("evaluation.integrate")["total_s"],
        "evaluation.external.self_s": layer("evaluation.external")["self_s"],
        "network.build_s": layer("network.build")["total_s"],
        "records.append_s": layer("records.append")["total_s"],
        "records.appends": layer("records.append")["count"],
        "records.bytes_appended": bytes_appended,
        "records.read_s": layer("records.read")["total_s"],
        "records.lines_read": layer("records.read")["size_total"],
        "trace.uncovered_s": uncovered_time(spans, run_s),
    }
