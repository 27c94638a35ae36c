"""Objective evaluation: power-trace processing, device profiles, evaluators.

Real measurements are ingested as power traces (CSV ``t_ms,power_w``): the
trace is split into working/idle at a per-device wattage threshold, inference
time is the working-window length, and energy the trapezoidal integral of
power over it.  A deterministic synthetic evaluator supports desk-scale runs,
and a file-based adapter protocol connects external trainers/devices.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shlex
import subprocess
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# perfbench/tracing.py rebinds evaluation.build_network, so the name stays importable here.
from .network import MacroConfig, build_network, network_costs  # noqa: F401
from .records import ObjectiveVector, _typed
from .search_space import CellGenome, encode


class TraceError(ValueError):
    """Malformed power trace or invalid integration window."""


# How np.loadtxt reads the data lines of a trace CSV: the first two cells of
# each line, quotes allowed, no comment syntax.
_TRACE_ROWS = dict(delimiter=",", usecols=(0, 1), comments=None, quotechar='"', ndmin=2)


# NumPy's loadtxt opens a file name ending in one of these suffixes as a
# compressed stream (numpy.lib._datasource), so such a name never reaches it.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _bad_line(name: str, exc: ValueError) -> str:
    """Name the first line of the trace file ``name`` that cannot be read.

    That is a line that is not UTF-8, or a data line np.loadtxt refuses.
    NumPy's message counts only the non-blank data lines, from 0 or from 1
    depending on the fault, so the file is read again line by line to give
    the 1-based line number (the header is line 1).  Falls back to NumPy's
    message when no line fails on its own.
    """
    with open(name, "rb") as fh:
        data = fh.read()
    # bytes.splitlines breaks at \n, \r\n and \r only: the line ends of text mode.
    for number, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raw = raw.rstrip(b"\r\n")
            return f"line {number} is not valid UTF-8: {raw!r}"
        if number == 1:
            continue
        try:
            np.loadtxt([line], **_TRACE_ROWS)
        except ValueError:
            text = line.rstrip("\r\n")
            return f"line {number} is not a 't_ms,power_w' row: {text!r}"
    return str(exc)


class EvaluatorError(RuntimeError):
    """External evaluator invocation failure (timeout, exit code, bad response)."""


class ResponseError(EvaluatorError):
    """The adapter exited 0 and wrote ``response.json``, but it is not a valid measurement.

    A second launch would repeat the measurement, so the search loop does not retry it.
    """


@dataclass(frozen=True)
class PowerTrace:
    """Sampled power curve: strictly increasing timestamps (ms), powers (W)."""

    t_ms: np.ndarray
    power_w: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t_ms, dtype=float)
        p = np.asarray(self.power_w, dtype=float)
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "power_w", p)
        if t.ndim != 1 or p.shape != t.shape:
            raise TraceError("trace requires matching 1-D time and power arrays")
        if t.shape[0] < 2:
            raise TraceError("trace requires at least 2 samples")
        if not np.all(np.diff(t) > 0):
            raise TraceError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(p)):
            raise TraceError("trace values must be finite")
        if np.any(p < 0):
            raise TraceError("power must be non-negative")

    @classmethod
    def from_samples(cls, samples) -> "PowerTrace":
        arr = np.asarray(list(samples), dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise TraceError("samples must be (t_ms, power_w) rows")
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def from_csv(cls, path: str | Path) -> "PowerTrace":
        """Read a ``t_ms,power_w`` CSV; further columns and blank lines are ignored."""
        # A relative name gets a "./" prefix, so that NumPy's opener never
        # takes it for a URL; ".." is left for the OS to resolve.
        name = os.path.join(os.curdir, path)
        if name.endswith(_COMPRESSED_SUFFIXES):
            raise TraceError(f"{path}: traces must be plain text, not {Path(name).suffix} files")
        with warnings.catch_warnings():
            # A header-only file is reported below as "no samples", not as
            # loadtxt's warning, which _bad_line's reads of blank lines also raise.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                with open(name, newline="", encoding="utf-8") as fh:
                    header = fh.readline().split(",")
                if [h.strip().strip('"') for h in header[:2]] != ["t_ms", "power_w"]:
                    raise TraceError(f"{path}: expected CSV header 't_ms,power_w'")
                # Given a name, NumPy's C reader pulls the file in chunks.
                rows = np.loadtxt(name, skiprows=1, encoding="utf-8", **_TRACE_ROWS)
            except TraceError:
                raise
            except ValueError as exc:
                # Also a UnicodeDecodeError, from the header line or from NumPy's reads.
                raise TraceError(f"{path}: {_bad_line(name, exc)}") from exc
        if rows.shape[0] == 0:
            raise TraceError(f"{path}: no samples")
        return cls(rows[:, 0], rows[:, 1])

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_ms", "power_w"])
            writer.writerows(zip(self.t_ms.tolist(), self.power_w.tolist()))


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device trace threshold plus coefficients for the synthetic evaluator.

    The synthetic model is deliberately simple: time is MACs over throughput,
    and energy is active power times time plus a per-parameter memory term.
    Error is not a profile's: it depends on the network alone (see
    :func:`synthetic_evaluate`).
    """

    name: str
    threshold_w: float
    throughput_macs: float = 1e12
    active_power_w: float = 100.0
    mem_energy_per_param_j: float = 1e-8

    def __post_init__(self) -> None:
        if self.threshold_w <= 0:
            raise ValueError("threshold_w must be positive")


BUILTIN_PROFILES = {
    # GTX TITAN X: 3072 CUDA cores, 6.7 TFLOPS FP32, 12 GB GDDR5 @ 336.6 GB/s, 250 W
    "titanx": DeviceProfile(
        name="titanx",
        threshold_w=80.0,
        throughput_macs=2.0e12,
        active_power_w=180.0,
        mem_energy_per_param_j=2e-8,
    ),
    # Jetson TX2: 256 CUDA cores, 1.5 TFLOPS FP32, 8 GB LPDDR4 @ 59.7 GB/s, 15 W
    "jetson-tx2": DeviceProfile(
        name="jetson-tx2",
        threshold_w=1.0,
        throughput_macs=2.5e11,
        active_power_w=10.0,
        mem_energy_per_param_j=5e-8,
    ),
    # Movidius NCS: Myriad 2 VPU, 2 TFLOPS FP16, 4 Gbit LPDDR3 @ 4 Gbit/s, 1 W
    "movidius-ncs": DeviceProfile(
        name="movidius-ncs",
        threshold_w=0.45,
        throughput_macs=8.0e10,
        active_power_w=0.9,
        mem_energy_per_param_j=8e-8,
    ),
}


def get_profile(name: str) -> DeviceProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown device profile {name!r}; built-ins: {sorted(BUILTIN_PROFILES)}"
        ) from None


def segment_trace(trace: PowerTrace, threshold_w: float) -> tuple[float, float]:
    """Timestamps (ms) of the first and last samples at or above the threshold."""
    above = np.nonzero(trace.power_w >= threshold_w)[0]
    if above.size == 0:
        raise TraceError(f"no sample reaches threshold {threshold_w} W")
    return float(trace.t_ms[above[0]]), float(trace.t_ms[above[-1]])


def integrate_energy(trace: PowerTrace, t1_ms: float, t2_ms: float) -> float:
    """Trapezoidal integral of power over [t1, t2], in joules.

    Window endpoints may fall between samples; power there is linearly
    interpolated, which keeps the integral additive over adjacent windows.
    """
    if not t1_ms < t2_ms:
        raise TraceError(f"integration window must satisfy t1 < t2, got [{t1_ms}, {t2_ms}]")
    if t1_ms < trace.t_ms[0] or t2_ms > trace.t_ms[-1]:
        raise TraceError(
            f"window [{t1_ms}, {t2_ms}] outside trace span "
            f"[{trace.t_ms[0]}, {trace.t_ms[-1]}]"
        )
    t, p = trace.t_ms, trace.power_w
    # Samples strictly inside (t1, t2) are t[lo:hi]; t[lo - 1] <= t1 and t2 <= t[hi].
    lo = int(np.searchsorted(t, t1_ms, side="right"))
    hi = int(np.searchsorted(t, t2_ms, side="left"))
    # np.interp over the two samples that bracket an endpoint gives the same
    # value as over the whole trace: the same operands, the same formula.
    ts = np.concatenate(([t1_ms], t[lo:hi], [t2_ms]))
    ps = np.concatenate(
        (
            [np.interp(t1_ms, t[lo - 1 : lo + 1], p[lo - 1 : lo + 1])],
            p[lo:hi],
            [np.interp(t2_ms, t[hi - 1 : hi + 1], p[hi - 1 : hi + 1])],
        )
    )
    joules_ms = float(np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ts)))
    return joules_ms / 1000.0


def measure_from_trace(trace: PowerTrace, profile: DeviceProfile) -> dict:
    """Segment at the profile threshold, then integrate: {time_s, energy_j, t1_ms, t2_ms}."""
    t1, t2 = segment_trace(trace, profile.threshold_w)
    return {
        "time_s": (t2 - t1) / 1000.0,
        "energy_j": integrate_energy(trace, t1, t2),
        "t1_ms": t1,
        "t2_ms": t2,
    }


# The synthetic error falls from the ceiling towards the floor as
# exp(-params / scale): one model for every device.
ERROR_FLOOR = 0.05
ERROR_CEILING = 0.40
ERROR_SCALE_PARAMS = 1.5e6


def synthetic_evaluate(
    genome: CellGenome,
    macro: MacroConfig,
    profile: DeviceProfile,
    seed: int = 0,
    noise: float = 0.0,
) -> ObjectiveVector:
    """Deterministic desk-scale objectives derived from the network's parameter and MAC counts.

    The counts come from :func:`network_costs`, which equals the totals of
    :func:`build_network`'s graph without building it.  A pure function of its
    arguments; a positive ``noise`` perturbs the error by up to ±noise, seeded
    from ``seed`` and the genome so repeated calls agree.
    """
    params, macs = network_costs(genome, macro)
    time_s = macs / profile.throughput_macs
    energy_j = time_s * profile.active_power_w + params * profile.mem_energy_per_param_j
    error = ERROR_FLOOR + (ERROR_CEILING - ERROR_FLOOR) * float(np.exp(-params / ERROR_SCALE_PARAMS))
    if noise > 0:
        rng = np.random.default_rng([int(seed)] + [v + 1 for v in encode(genome)])
        error += float(rng.uniform(-noise, noise))
        error = min(max(error, 0.0), 1.0)
    return ObjectiveVector(error=error, energy_j=energy_j, time_s=time_s)


_TRAINING_DEFAULTS = {
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


def _parse_response(raw: dict, workdir: Path) -> ObjectiveVector:
    """The measurement in ``raw``; as in the run log, no value is converted (a bool is not a number)."""
    if "error" not in raw:
        raise ResponseError("response.json missing 'error'")
    direct = "energy_j" in raw and "time_s" in raw
    traced = "trace_path" in raw
    if direct == traced:
        raise ResponseError(
            "response.json must carry exactly one of {energy_j,time_s} or {trace_path,threshold_w}"
        )
    if direct:
        return ObjectiveVector.from_json_dict(raw)
    if "threshold_w" not in raw:
        raise ResponseError("trace response requires 'threshold_w'")
    error = float(_typed(raw, "error", (int, float), "a number"))
    trace_path = Path(_typed(raw, "trace_path", (str,), "a string"))
    if not trace_path.is_absolute():
        trace_path = workdir / trace_path
    if not trace_path.exists():
        raise ResponseError(f"trace file not found: {trace_path}")
    try:
        trace = PowerTrace.from_csv(trace_path)
    except OSError as exc:  # a directory, or a file that cannot be opened
        raise ResponseError(f"trace file could not be read: {exc}") from exc
    t1, t2 = segment_trace(trace, float(_typed(raw, "threshold_w", (int, float), "a number")))
    return ObjectiveVector(
        error=error,
        energy_j=integrate_energy(trace, t1, t2),
        time_s=(t2 - t1) / 1000.0,
    )


def external_evaluate(
    request: dict,
    command: str | list[str],
    workdir: str | Path,
    timeout_s: float = 3600.0,
) -> ObjectiveVector:
    """Run one external evaluation through the request/response file protocol.

    Writes ``request`` to ``<workdir>/request.json``, invokes the adapter
    command with the working directory set, then reads ``response.json``.
    Exit code 0 is required; stderr is surfaced on failure.  A response that
    is there but is not a valid measurement raises :class:`ResponseError`.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "request.json").write_text(json.dumps(request, indent=2), encoding="utf-8")
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    try:
        # stdout is never read; stderr is kept as bytes, since an adapter may
        # print anything, and decoded only for a failure message.
        proc = subprocess.run(
            argv,
            cwd=workdir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise EvaluatorError(f"adapter timed out after {timeout_s}s: {argv}") from exc
    except OSError as exc:
        raise EvaluatorError(f"adapter could not be launched: {exc}") from exc
    if proc.returncode != 0:
        raise EvaluatorError(
            f"adapter exited with {proc.returncode}; "
            f"stderr: {proc.stderr.decode('utf-8', errors='replace').strip()}"
        )
    response_path = workdir / "response.json"
    if not response_path.exists():
        raise EvaluatorError(f"adapter wrote no {response_path}")
    try:
        raw = json.loads(response_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ResponseError(f"response.json is not valid JSON: {exc}") from exc
    try:
        return _parse_response(raw, workdir)
    except (ValueError, TypeError) as exc:
        raise ResponseError(f"malformed response: {exc}") from exc


# The keys each evaluator type reads besides "type"; for each, what it must be and a check.
_SPEC_KEYS = {
    "synthetic": ("profile", "seed", "noise"),
    "external": ("command", "workdir", "timeout_s", "device", "training"),
}
_SPEC_CHECKS = {
    "profile": (f"one of {sorted(BUILTIN_PROFILES)}", lambda v: isinstance(v, str) and v in BUILTIN_PROFILES),
    "seed": ("an int >= 0", lambda v: type(v) is int and v >= 0),
    "noise": ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v < math.inf),
    "command": (  # each item of a string is a string too
        "a non-empty string or list of strings",
        lambda v: type(v) in (str, list) and len(v) > 0 and all(isinstance(c, str) for c in v),
    ),
    "workdir": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "timeout_s": ("a finite number > 0", lambda v: type(v) in (int, float) and 0 < v < math.inf),
    "device": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "training": ("a JSON object (dict)", lambda v: isinstance(v, dict)),
}


def build_evaluator(spec: dict, macro: MacroConfig):
    """Check an evaluator spec; return ``(callable genome -> ObjectiveVector, device name)``.

    The one reader of the spec.  ``type`` is "synthetic" (the default) or
    "external".  Synthetic keys: ``profile`` ("movidius-ncs"; it names the
    device), ``seed`` (0), ``noise`` (0.0).  External keys: ``command`` and
    ``workdir`` (required), ``timeout_s`` (3600), ``device`` ("external"),
    ``training`` ({}, merged over the defaults).  A bad spec raises ``ValueError``
    naming the field; ``RunConfig`` calls this when a config is loaded.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"evaluator must be a JSON object (dict), got {spec!r}")
    kind = spec.get("type", "synthetic")
    if not (isinstance(kind, str) and kind in _SPEC_KEYS):
        raise ValueError(f"evaluator type must be one of {sorted(_SPEC_KEYS)}, got {kind!r}")
    unknown = set(spec) - {"type", *_SPEC_KEYS[kind]}
    if unknown:
        raise ValueError(f"evaluator fields not read by type {kind!r}: {sorted(unknown)}")
    for key in _SPEC_KEYS[kind]:
        wanted, check = _SPEC_CHECKS[key]
        if key in spec and not check(spec[key]):
            raise ValueError(f"evaluator {key} must be {wanted}, got {spec[key]!r}")

    if kind == "synthetic":
        profile = BUILTIN_PROFILES[spec.get("profile", "movidius-ncs")]
        seed, noise = spec.get("seed", 0), float(spec.get("noise", 0.0))

        def evaluate(genome: CellGenome) -> ObjectiveVector:
            return synthetic_evaluate(genome, macro, profile, seed=seed, noise=noise)

        return evaluate, profile.name

    if "command" not in spec or "workdir" not in spec:
        raise ValueError("evaluator of type 'external' requires 'command' and 'workdir'")
    command, workdir, timeout_s = spec["command"], spec["workdir"], float(spec.get("timeout_s", 3600.0))
    training = {**_TRAINING_DEFAULTS, **spec.get("training", {})}
    device = spec.get("device", "external")
    # Everything in request.json but the genome, in the order the file is written.
    fixed = dict(N=macro.N, F=macro.F, num_classes=macro.num_classes, training=training, device=device)

    def evaluate(genome: CellGenome) -> ObjectiveVector:
        request = {"genome": genome.to_json_dict(), **fixed}
        return external_evaluate(request, command, workdir, timeout_s)

    return evaluate, device
