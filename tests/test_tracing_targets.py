"""Every name the traced benchmark rebinds must exist on its owner.

``perfbench/tracing.py`` swaps public functions of the program for timed
wrappers, looked up by name; a deleted or renamed function would make
``perfbench/run.py --trace 1`` fail, so it fails here first.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
        for name in ("tracing", "clock", "stats"):
            sys.modules.pop(name, None)
    assert not missing, f"names rebound by perfbench/tracing.py are missing: {missing}"
