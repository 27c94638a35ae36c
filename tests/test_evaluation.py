import contextlib
import csv
import io
import json
import re
import stat
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib import _datasource

from hwnas.evaluation import (
    _COMPRESSED_SUFFIXES,
    BUILTIN_PROFILES,
    EvaluatorError,
    PowerTrace,
    ResponseError,
    TraceError,
    build_evaluator,
    external_evaluate,
    get_profile,
    integrate_energy,
    measure_from_trace,
    segment_trace,
    synthetic_evaluate,
)
from hwnas.network import MacroConfig
from hwnas.search_space import Operation, decode, encode, enumerate_genomes, random_genome

from test_search_space import all_identity_genome


def constant_trace(power=2.0, duration_ms=5000, step_ms=20):
    t = np.arange(0, duration_ms + step_ms, step_ms, dtype=float)
    return PowerTrace(t, np.full(t.shape, power))


def triangular_trace(peak=10.0, duration_ms=2000, step_ms=20):
    t = np.arange(0, duration_ms + step_ms, step_ms, dtype=float)
    half = duration_ms / 2
    p = peak * (1 - np.abs(t - half) / half)
    return PowerTrace(t, np.maximum(p, 0.0))


class TestPowerTrace:
    def test_requires_two_samples(self):
        with pytest.raises(TraceError):
            PowerTrace(np.array([0.0]), np.array([1.0]))

    def test_requires_increasing_time(self):
        with pytest.raises(TraceError):
            PowerTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_rejects_negative_power(self):
        with pytest.raises(TraceError):
            PowerTrace(np.array([0.0, 20.0]), np.array([1.0, -0.1]))

    def test_csv_round_trip(self, tmp_path):
        trace = constant_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = PowerTrace.from_csv(path)
        assert np.array_equal(back.t_ms, trace.t_ms)
        assert np.array_equal(back.power_w, trace.power_w)

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n20,1\n")
        with pytest.raises(TraceError):
            PowerTrace.from_csv(path)

    def test_from_samples_rejects_empty_and_one_column(self):
        with pytest.raises(TraceError):
            PowerTrace.from_samples([])
        with pytest.raises(TraceError):
            PowerTrace.from_samples([(0.0,), (20.0,)])


def csv_oracle(text):
    """The csv-module reading of a trace: a header line, then float() of the first two cells.

    The header is one physical line, even where a quote in it is never closed.
    """
    buf = io.StringIO(text, newline="")
    buf.readline()
    rows = [(float(r[0]), float(r[1])) for r in csv.reader(buf) if r]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


FINITE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
FORMATS = (repr, lambda x: "%.17g" % x, lambda x: "%e" % x, lambda x: str(int(x)))
DECORATIONS = ("{}", " {}", "{} ", "  {}  ", '"{}"')
HEADERS = (
    "t_ms,power_w",
    '"t_ms","power_w"',
    " t_ms , power_w ",
    "t_ms,power_w,v",
    't_ms,power_w,"note',
)


@st.composite
def trace_texts(draw):
    """CSV text of a valid trace: mixed headers, number formats, spacing, quotes, line ends."""
    cells = draw(
        st.lists(
            st.tuples(FINITE, FINITE, st.sampled_from(FORMATS), st.sampled_from(FORMATS)),
            min_size=2,
            max_size=40,
        )
    )
    rows = {}
    for t, p, ft, fp in cells:
        t_cell, p_cell = ft(t), fp(p)
        rows.setdefault(float(t_cell), (t_cell, p_cell))
    assume(len(rows) >= 2)
    lines = [draw(st.sampled_from(HEADERS))]
    for key in sorted(rows):
        t_cell, p_cell = rows[key]
        t_dec, p_dec = draw(st.sampled_from(DECORATIONS)), draw(st.sampled_from(DECORATIONS))
        line = t_dec.format(t_cell) + "," + p_dec.format(p_cell)
        line += draw(st.sampled_from(("", ",extra", ",3.5", ',"x"')))
        lines.append(line)
        lines.extend([""] * draw(st.integers(0, 2)))
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


class TestTraceCsv:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=trace_texts(), form=st.sampled_from(("path", "str", "relative")))
    def test_matches_csv_module_bit_for_bit(self, tmp_path_factory, text, form):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        path.write_bytes(text.encode())
        t_want, p_want = csv_oracle(text)
        if form == "relative":
            with contextlib.chdir(path.parent):
                trace = PowerTrace.from_csv("t.csv")
        else:
            trace = PowerTrace.from_csv(path if form == "path" else str(path))
        assert np.array_equal(trace.t_ms.view(np.int64), t_want.view(np.int64))
        assert np.array_equal(trace.power_w.view(np.int64), p_want.view(np.int64))

    @pytest.mark.parametrize(
        "body, line, text",
        [
            ("0,1\n# comment\n20,1\n", 3, "# comment"),
            ("0,1\n,1\n20,1\n", 3, ",1"),
            ("0,1\n20\n", 3, "20"),
            ("0,1\n1_0,1\n20,1\n", 3, "1_0,1"),
            # NumPy counts neither the header nor blank lines, and counts a bad
            # cell from 0 but a short row from 1; the error names the file's line.
            ("0.0,0.1\n\n0.1,abc\n0.2,0.3\n", 4, "0.1,abc"),
            ("0.0,0.1\r\n\r\n0.1\r\n0.2,0.3\r\n", 4, "0.1"),
        ],
        ids=[
            "comment-line",
            "empty-cell",
            "one-column",
            "digit-underscore",
            "blank-then-cell",
            "blank-then-one-cell",
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, body, line, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_ms,power_w\n" + body.encode())
        message = rf"bad\.csv: line {line} is not a 't_ms,power_w' row: '{re.escape(text)}'$"
        with pytest.raises(TraceError, match=message):
            PowerTrace.from_csv(path)

    @pytest.mark.parametrize(
        "data, line, shown",
        [
            (b"t_ms,power_w\n0,1\n2,\xff\n", 3, "b'2,\\\\xff'"),
            (b"t_ms,power_w\r\n0,1\r\n\r\n\xfe2,3\r\n", 4, "b'\\\\xfe2,3'"),
            (b"t_ms,power_w\r0,1\r2,\xc3\r", 3, "b'2,\\\\xc3'"),
            (b"t_ms,\xffpower_w\n0,1\n2,3\n", 1, "b't_ms,\\\\xffpower_w'"),
        ],
        ids=["data-row", "after-blank-crlf", "lone-cr", "header"],
    )
    def test_not_utf8_names_the_line(self, tmp_path, data, line, shown):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = rf"bad\.csv: line {line} is not valid UTF-8: {shown}$"
        with pytest.raises(TraceError, match=message):
            PowerTrace.from_csv(path)

    def test_first_bad_line_wins_over_a_later_bad_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_ms,power_w\n0,1\n2,abc\n" + b"3,1\n" * 100 + b"4,\xff\n")
        with pytest.raises(TraceError, match=r"line 3 is not a 't_ms,power_w' row: '2,abc'$"):
            PowerTrace.from_csv(path)

    @pytest.mark.parametrize("suffix", _COMPRESSED_SUFFIXES)
    def test_compressed_suffix_refused(self, tmp_path, suffix):
        # A plain-text trace under such a name would reach NumPy's decompressor.
        path = tmp_path / f"t.csv{suffix}"
        constant_trace().to_csv(path)
        with pytest.raises(TraceError, match=rf"t\.csv\{suffix}: traces must be plain text"):
            PowerTrace.from_csv(path)

    def test_compressed_suffixes_are_numpys(self):
        assert set(_COMPRESSED_SUFFIXES) == {ext for ext in _datasource._file_openers.keys() if ext}

    def test_url_like_name_is_read_as_a_local_file(self, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("the trace name was taken for a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_network)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        constant_trace().to_csv(tmp_path / "http:" / "localhost" / "t.csv")
        monkeypatch.chdir(tmp_path)
        trace = PowerTrace.from_csv("http://localhost/t.csv")
        assert np.array_equal(trace.t_ms, constant_trace().t_ms)

    def test_header_only_has_no_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_ms,power_w\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="empty.csv: no samples"):
                PowerTrace.from_csv(path)


class TestSegmentTrace:
    def test_constant_trace_full_span(self):
        trace = constant_trace(power=2.0)
        assert segment_trace(trace, 1.0) == (0.0, 5000.0)

    def test_burst_bounds(self):
        trace = PowerTrace.from_samples([(0, 0.1), (20, 5.0), (40, 5.0), (60, 0.1)])
        assert segment_trace(trace, 1.0) == (20.0, 40.0)

    def test_all_below_threshold(self):
        trace = PowerTrace.from_samples([(0, 0.1), (20, 0.2)])
        with pytest.raises(TraceError):
            segment_trace(trace, 1.0)

    def test_threshold_inclusive(self):
        trace = PowerTrace.from_samples([(0, 0.5), (20, 1.0), (40, 0.5)])
        assert segment_trace(trace, 1.0) == (20.0, 20.0)

    def test_invariant_to_subthreshold_changes_outside_window(self):
        base = PowerTrace.from_samples([(0, 0.1), (20, 5.0), (40, 5.0), (60, 0.1), (80, 0.3)])
        tweaked = PowerTrace.from_samples([(0, 0.9), (20, 5.0), (40, 5.0), (60, 0.4), (80, 0.0)])
        assert segment_trace(base, 1.0) == segment_trace(tweaked, 1.0)


def integrate_oracle(trace, t1_ms, t2_ms):
    """integrate_energy as first written: two full-length masks, np.interp over the whole trace."""
    inside = (trace.t_ms > t1_ms) & (trace.t_ms < t2_ms)
    ts = np.concatenate(([t1_ms], trace.t_ms[inside], [t2_ms]))
    ps = np.concatenate(
        (
            [np.interp(t1_ms, trace.t_ms, trace.power_w)],
            trace.power_w[inside],
            [np.interp(t2_ms, trace.t_ms, trace.power_w)],
        )
    )
    return float(np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ts))) / 1000.0


@st.composite
def traces_and_windows(draw):
    """A trace of 2-50 samples and a window whose ends are on, between or at the ends of samples."""
    n = draw(st.integers(2, 50))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    t = np.cumsum([draw(st.floats(-1e3, 1e3))] + steps)
    assume(np.all(np.diff(t) > 0))
    p = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))

    def endpoint():
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("sample", "between", "first", "last")))
        if kind == "first":
            return float(t[0])
        if kind == "last":
            return float(t[-1])
        if kind == "sample" or i == n - 1:
            return float(t[i])
        return float(t[i] + draw(st.floats(0.0, 1.0)) * (t[i + 1] - t[i]))

    t1, t2 = sorted((endpoint(), endpoint()))
    assume(t1 < t2)
    return PowerTrace(t, p), t1, t2


class TestIntegrateEnergy:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(case=traces_and_windows())
    def test_bit_identical_to_full_trace_formula(self, case):
        trace, t1, t2 = case
        got = np.float64(integrate_energy(trace, t1, t2))
        want = np.float64(integrate_oracle(trace, t1, t2))
        assert got.view(np.int64) == want.view(np.int64)

    def test_constant_power_exact(self):
        assert integrate_energy(constant_trace(), 0.0, 5000.0) == pytest.approx(10.0)

    def test_triangular_pulse_exact(self):
        # Trapezoid is exact on the piecewise-linear pulse: area = 1/2 * 2s * 10W.
        assert integrate_energy(triangular_trace(), 0.0, 2000.0) == pytest.approx(10.0, abs=1e-9)

    def test_zero_width_window_rejected(self):
        with pytest.raises(TraceError):
            integrate_energy(constant_trace(), 100.0, 100.0)

    def test_window_outside_trace_rejected(self):
        with pytest.raises(TraceError):
            integrate_energy(constant_trace(), -10.0, 100.0)
        with pytest.raises(TraceError):
            integrate_energy(constant_trace(), 0.0, 6000.0)

    def test_additive_over_adjacent_windows(self):
        rng = np.random.default_rng(0)
        trace = PowerTrace(np.arange(0, 2020, 20, dtype=float), rng.uniform(0.5, 5.0, 101))
        for _ in range(20):
            t1, t2, t3 = np.sort(rng.uniform(0.0, 2000.0, 3))
            if not (t1 < t2 < t3):
                continue
            total = integrate_energy(trace, t1, t3)
            split = integrate_energy(trace, t1, t2) + integrate_energy(trace, t2, t3)
            assert split == pytest.approx(total, rel=1e-9)

    def test_power_scaling_and_time_shift(self):
        trace = triangular_trace()
        base = integrate_energy(trace, 100.0, 1900.0)
        scaled = PowerTrace(trace.t_ms, 3.0 * trace.power_w)
        assert integrate_energy(scaled, 100.0, 1900.0) == pytest.approx(3.0 * base, rel=1e-12)
        shifted = PowerTrace(trace.t_ms + 500.0, trace.power_w)
        assert integrate_energy(shifted, 600.0, 2400.0) == pytest.approx(base, rel=1e-12)


class TestMeasure:
    def test_constant_above_threshold(self):
        out = measure_from_trace(constant_trace(), get_profile("jetson-tx2"))
        assert out["time_s"] == pytest.approx(5.0)
        assert out["energy_j"] == pytest.approx(10.0)

    def test_builtin_thresholds(self):
        assert get_profile("titanx").threshold_w == 80.0
        assert get_profile("jetson-tx2").threshold_w == 1.0
        assert get_profile("movidius-ncs").threshold_w == 0.45

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("tpu")


class TestSyntheticEvaluate:
    def test_deterministic(self):
        g = random_genome(np.random.default_rng(1))
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        assert synthetic_evaluate(g, macro, prof, seed=3) == synthetic_evaluate(g, macro, prof, seed=3)

    def test_all_identity_has_minimal_time_in_one_block_space(self):
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        best = min(enumerate_genomes(1), key=lambda g: synthetic_evaluate(g, macro, prof).time_s)
        assert {best.blocks[0].op1, best.blocks[0].op2} == {Operation.IDENTITY}

    def test_conv7x7_never_faster_than_identity(self):
        rng = np.random.default_rng(2)
        macro = MacroConfig(N=1, F=8)
        prof = get_profile("titanx")
        for _ in range(30):
            g = random_genome(rng)
            vec = list(encode(g))
            op_positions = [i for i in range(20) if i % 4 >= 2]
            pos = int(rng.choice(op_positions))
            vec_id = list(vec)
            vec_id[pos] = int(Operation.IDENTITY)
            vec_conv = list(vec)
            vec_conv[pos] = int(Operation.CONV7X7)
            t_id = synthetic_evaluate(decode(vec_id), macro, prof).time_s
            t_conv = synthetic_evaluate(decode(vec_conv), macro, prof).time_s
            assert t_conv >= t_id

    def test_error_is_device_independent(self):
        g = random_genome(np.random.default_rng(3))
        macro = MacroConfig()
        errors = {
            synthetic_evaluate(g, macro, profile).error for profile in BUILTIN_PROFILES.values()
        }
        assert len(errors) == 1

    def test_noise_seeded_and_bounded(self):
        g = random_genome(np.random.default_rng(4))
        macro = MacroConfig()
        prof = get_profile("movidius-ncs")
        a = synthetic_evaluate(g, macro, prof, seed=7, noise=0.05)
        b = synthetic_evaluate(g, macro, prof, seed=7, noise=0.05)
        c = synthetic_evaluate(g, macro, prof, seed=8, noise=0.05)
        clean = synthetic_evaluate(g, macro, prof, seed=7)
        assert a == b
        assert abs(a.error - clean.error) <= 0.05
        assert 0.0 <= a.error <= 1.0
        assert (a.energy_j, a.time_s) == (clean.energy_j, clean.time_s)
        assert a.error != c.error


ADAPTER_PASSTHROUGH = """#!/usr/bin/env python3
import json, pathlib
req = json.loads(pathlib.Path("request.json").read_text())
assert set(req) == {"genome", "N", "F", "num_classes", "training", "device"}
pathlib.Path("response.json").write_text(json.dumps(
    {"error": 0.25, "energy_j": 2.0, "time_s": 0.05}))
"""

ADAPTER_TRACE = """#!/usr/bin/env python3
import json, pathlib
pathlib.Path("response.json").write_text(json.dumps(
    {"error": 0.1, "trace_path": "trace.csv", "threshold_w": 1.0}))
"""

ADAPTER_FAIL = """#!/usr/bin/env python3
import sys
sys.stderr.write("device unreachable")
sys.exit(3)
"""

ADAPTER_MALFORMED = """#!/usr/bin/env python3
import json, pathlib
pathlib.Path("response.json").write_text(json.dumps(
    {"error": 0.2, "energy_j": 1.0, "time_s": 0.1, "trace_path": "x", "threshold_w": 1}))
"""


ADAPTER_NOISY_STDOUT = """#!/usr/bin/env python3
import json, pathlib, sys
pathlib.Path("response.json").write_text(json.dumps(
    {"error": 0.25, "energy_j": 2.0, "time_s": 0.05}))
sys.stdout.buffer.write(b"epoch 1 \\xff done\\n")
"""

ADAPTER_FAIL_NOT_UTF8 = """#!/usr/bin/env python3
import sys
sys.stderr.buffer.write(b"device \\xff unreachable")
sys.exit(4)
"""


def write_adapter(tmp_path, body, name="adapter.py"):
    path = tmp_path / name
    path.write_text(body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return [sys.executable, str(path)]


def sample_request():
    g = all_identity_genome()
    return {"genome": g.to_json_dict(), "N": 2, "F": 24, "num_classes": 10, "training": {}, "device": "rig-1"}


class TestExternalEvaluate:
    def test_passthrough(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_PASSTHROUGH)
        ov = external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)
        assert (ov.error, ov.energy_j, ov.time_s) == (0.25, 2.0, 0.05)

    def test_training_defaults_in_request(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_PASSTHROUGH)
        spec = {"type": "external", "command": cmd, "workdir": str(tmp_path), "timeout_s": 30}
        evaluate, _ = build_evaluator(spec, MacroConfig())
        evaluate(all_identity_genome())
        req = json.loads((tmp_path / "request.json").read_text())
        assert req["training"] == {
            "epochs": 10,
            "batch_size": 32,
            "optimizer": "rmsprop",
            "momentum": 0.9,
            "decay": 0.9,
            "lr": 0.01,
            "lr_decay": 0.94,
            "lr_decay_every_epochs": 2,
            "weight_decay": 0.00004,
        }

    def test_trace_response(self, tmp_path):
        constant_trace().to_csv(tmp_path / "trace.csv")
        cmd = write_adapter(tmp_path, ADAPTER_TRACE)
        ov = external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)
        assert ov.energy_j == pytest.approx(10.0)
        assert ov.time_s == pytest.approx(5.0)
        assert ov.error == pytest.approx(0.1)

    def test_nonzero_exit_surfaces_stderr(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_FAIL)
        with pytest.raises(EvaluatorError, match="device unreachable"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)

    def test_stdout_not_utf8_keeps_the_measurement(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_NOISY_STDOUT)
        ov = external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)
        assert (ov.error, ov.energy_j, ov.time_s) == (0.25, 2.0, 0.05)

    def test_stderr_not_utf8_surfaces_replaced(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_FAIL_NOT_UTF8)
        with pytest.raises(EvaluatorError, match="exited with 4; stderr: device \ufffd unreachable$"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)

    def test_both_measurement_forms_rejected(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_MALFORMED)
        with pytest.raises(EvaluatorError, match="exactly one"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)

    def test_trace_with_bad_row(self, tmp_path):
        (tmp_path / "trace.csv").write_text("t_ms,power_w\n0,2\n20\n40,2\n")
        cmd = write_adapter(tmp_path, ADAPTER_TRACE)
        with pytest.raises(EvaluatorError, match="malformed response: .*trace.csv"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)

    def test_missing_trace_file(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_TRACE)  # trace.csv never written
        with pytest.raises(EvaluatorError, match="trace file"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=30)

    def test_only_a_written_response_is_a_response_error(self, tmp_path):
        bad_json = "#!/usr/bin/env python3\nimport pathlib\npathlib.Path('response.json').write_text('{')\n"
        for body in (ADAPTER_MALFORMED, bad_json):
            with pytest.raises(ResponseError):
                external_evaluate(sample_request(), write_adapter(tmp_path, body), tmp_path, timeout_s=30)
        with pytest.raises(EvaluatorError) as failure:
            external_evaluate(sample_request(), write_adapter(tmp_path, ADAPTER_FAIL), tmp_path, timeout_s=30)
        assert not isinstance(failure.value, ResponseError)

    @pytest.mark.parametrize(
        "response, message",
        [
            ({"error": "0.5", "energy_j": 2.0, "time_s": 0.05}, "error must be a number, got '0.5'"),
            ({"error": False, "energy_j": 2.0, "time_s": 0.05}, "error must be a number, got False"),
            ({"error": 0.25, "energy_j": True, "time_s": 0.05}, "energy_j must be a number, got True"),
            ({"error": 0.25, "energy_j": 2.0, "time_s": "1e-2"}, "time_s must be a number, got '1e-2'"),
            ({"error": 0.1, "trace_path": "trace.csv", "threshold_w": "1.0"}, "threshold_w must be a number"),
            # Only the prefix is matched: Path() would refuse a number too, without naming the field.
            ({"error": 0.1, "trace_path": 5, "threshold_w": 1.0}, ""),
        ],
        ids=["text-error", "boolean-error", "boolean-energy", "text-time", "text-threshold", "number-trace-path"],
    )
    def test_response_value_of_another_json_type_refused(self, tmp_path, response, message):
        constant_trace().to_csv(tmp_path / "trace.csv")
        body = f"import json, pathlib\npathlib.Path('response.json').write_text(json.dumps({response!r}))\n"
        with pytest.raises(ResponseError, match=re.escape(f"malformed response: {message}")):
            external_evaluate(sample_request(), write_adapter(tmp_path, body), tmp_path, timeout_s=30)

    def test_timeout(self, tmp_path):
        cmd = write_adapter(tmp_path, "#!/usr/bin/env python3\nimport time\ntime.sleep(5)\n")
        with pytest.raises(EvaluatorError, match="timed out"):
            external_evaluate(sample_request(), cmd, tmp_path, timeout_s=0.5)


# Evaluator specs that must be refused where they are loaded, each with the start of its message.
BAD_EVALUATOR_SPECS = [
    ("synthetic", "evaluator must be a JSON object"),
    (["synthetic"], "evaluator must be a JSON object"),
    ({"type": "quantum"}, "evaluator type must be one of ['external', 'synthetic']"),
    ({"type": ["synthetic"]}, "evaluator type must be one of"),
    ({"type": "synthetic", "profle": "titanx"}, "evaluator fields not read by type 'synthetic': ['profle']"),
    ({"type": "synthetic", "command": "true"}, "evaluator fields not read by type 'synthetic'"),
    ({"type": "synthetic", "profile": "tpu"}, "evaluator profile must be one of"),
    ({"type": "synthetic", "seed": 1.7}, "evaluator seed must be an int >= 0, got 1.7"),
    ({"type": "synthetic", "seed": "3"}, "evaluator seed must be an int >= 0"),
    ({"type": "synthetic", "seed": True}, "evaluator seed must be an int >= 0"),
    ({"type": "synthetic", "seed": -1}, "evaluator seed must be an int >= 0"),
    ({"type": "synthetic", "noise": -0.05}, "evaluator noise must be a finite number >= 0"),
    ({"type": "synthetic", "noise": "0.05"}, "evaluator noise must be a finite number >= 0"),
    ({"type": "synthetic", "noise": float("nan")}, "evaluator noise must be a finite number >= 0"),
    ({"type": "external", "command": "true"}, "evaluator of type 'external' requires 'command' and 'workdir'"),
    ({"type": "external", "command": "true", "workdir": "w", "seed": 0}, "evaluator fields not read by type 'external'"),
    ({"type": "external", "command": "", "workdir": "w"}, "evaluator command must be"),
    ({"type": "external", "command": [], "workdir": "w"}, "evaluator command must be"),
    ({"type": "external", "command": ["sh", 1], "workdir": "w"}, "evaluator command must be"),
    ({"type": "external", "command": "true", "workdir": ""}, "evaluator workdir must be a non-empty string"),
    ({"type": "external", "command": "true", "workdir": "w", "timeout_s": 0}, "evaluator timeout_s must be a finite number > 0"),
    ({"type": "external", "command": "true", "workdir": "w", "timeout_s": -5}, "evaluator timeout_s must be"),
    ({"type": "external", "command": "true", "workdir": "w", "timeout_s": float("inf")}, "evaluator timeout_s must be"),
    ({"type": "external", "command": "true", "workdir": "w", "device": 5}, "evaluator device must be a non-empty string"),
    ({"type": "external", "command": "true", "workdir": "w", "device": ""}, "evaluator device must be"),
    ({"type": "external", "command": "true", "workdir": "w", "training": [1]}, "evaluator training must be a JSON object"),
]


class TestBuildEvaluator:
    def test_synthetic_spec(self):
        ev, device = build_evaluator({"type": "synthetic", "profile": "titanx"}, MacroConfig())
        assert device == "titanx"
        g = all_identity_genome()
        assert ev(g) == ev(g)

    def test_external_spec_requires_command(self):
        with pytest.raises(ValueError):
            build_evaluator({"type": "external"}, MacroConfig())

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            build_evaluator({"type": "quantum"}, MacroConfig())

    def test_external_request_and_device(self, tmp_path):
        cmd = write_adapter(tmp_path, ADAPTER_PASSTHROUGH)
        spec = {"type": "external", "command": cmd, "workdir": str(tmp_path), "training": {"epochs": 3}}
        evaluate, device = build_evaluator(spec, MacroConfig(N=1, F=8, num_classes=5))
        g = all_identity_genome()
        evaluate(g)
        req = json.loads((tmp_path / "request.json").read_text())
        assert list(req) == ["genome", "N", "F", "num_classes", "training", "device"]
        assert (req["genome"], req["N"], req["F"], req["num_classes"]) == (g.to_json_dict(), 1, 8, 5)
        assert (req["training"]["epochs"], req["training"]["batch_size"]) == (3, 32)
        assert device == req["device"] == "external"

    def test_synthetic_defaults(self):
        ev, device = build_evaluator({"type": "synthetic"}, MacroConfig())
        g = random_genome(np.random.default_rng(4))
        assert device == "movidius-ncs"
        assert ev(g) == synthetic_evaluate(g, MacroConfig(), get_profile("movidius-ncs"))
        noisy, _ = build_evaluator({"noise": 0.05, "seed": 7}, MacroConfig())
        assert noisy(g) == synthetic_evaluate(g, MacroConfig(), get_profile("movidius-ncs"), seed=7, noise=0.05)

    @pytest.mark.parametrize("spec, message", BAD_EVALUATOR_SPECS)
    def test_bad_spec_names_the_field(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build_evaluator(spec, MacroConfig())
