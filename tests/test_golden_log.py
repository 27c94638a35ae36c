"""Fixed-seed searches must reproduce the checked-in run logs byte for byte.

The logs under ``tests/data`` were written by the search with closed-form
EHVI as its acquisition, and read the same with one BLAS thread and with the
default thread count.  A change that claims to preserve behaviour must keep
them passing; a change to the search on purpose replaces them and says so.
"""

from pathlib import Path

import pytest

from hwnas.evaluation import build_evaluator
from hwnas.optimize import RunConfig, run_search

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "b1_noise.jsonl": dict(
        seed=0,
        budget=40,
        n_init=10,
        num_blocks=1,
        evaluator={"type": "synthetic", "profile": "movidius-ncs", "noise": 0.05, "seed": 0},
    ),
    "b2_error_time.jsonl": dict(
        seed=0,
        budget=30,
        n_init=10,
        num_blocks=2,
        objective_subset=("error", "time"),
        evaluator={"type": "synthetic", "profile": "movidius-ncs"},
    ),
    "b5_three.jsonl": dict(
        seed=0,
        budget=30,
        n_init=10,
        num_blocks=5,
        evaluator={"type": "synthetic", "profile": "movidius-ncs"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_log_matches_golden(tmp_path, name):
    log = tmp_path / name
    cfg = RunConfig(log_path=str(log), **GOLDEN[name])
    evaluator, _ = build_evaluator(cfg.evaluator, cfg.macro)
    run_search(cfg, evaluator)
    assert log.read_bytes() == (DATA / name).read_bytes()
