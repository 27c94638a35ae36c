"""Every name the benchmark imports or rebinds must exist on its owner.

``perfbench/tracing.py`` swaps public functions of the program for timed
wrappers, looked up by name, and ``perfbench/workloads.py`` (with the
``checks.py`` it imports) calls the program by name; a deleted or renamed
function would make ``perfbench/run.py`` fail, so it fails here first.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench's modules import each other as top-level names.
PERFBENCH_MODULES = ("workloads", "checks", "speed", "tracing", "clock", "stats")


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in tracing._targets()
            if attr not in vars(owner)
        ]
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
    assert not missing, f"names rebound by perfbench/tracing.py are missing: {missing}"


def test_workload_imports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        # An ImportError here names the program attribute the benchmark lost.
        importlib.import_module("workloads")
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
