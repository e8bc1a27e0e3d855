"""Golden scores: six methods on every grid cell at n = 60, seed 0.

``golden_scores.json`` holds the ``repr`` of both directional scores and
the decision of each (cell, method). Decisions must match exactly; scores
to 1e-9 relative, since the BLAS thread count moves the last bits.
Re-record with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from kiim import MechanismSpec, Method, generate, infer_direction, table1_grid

GOLDEN = Path(__file__).with_name("golden_scores.json")
N, SEED, RTOL = 60, 0, 1e-9


def _key(mechanism, noise, method) -> str:
    return f"{mechanism.value}/{noise.value}/{method.value}"


def _compute(mechanism, noise, method) -> dict:
    dataset = generate(MechanismSpec(mechanism=mechanism, noise=noise, n=N, seed=SEED))
    decision = infer_direction(dataset, method)
    return {"score_xy": repr(decision.score_xy.score),
            "score_yx": repr(decision.score_yx.score),
            "direction": decision.direction.value}


_CASES = [(mechanism, noise, method) for mechanism, noise in table1_grid() for method in Method]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mechanism,noise,method", _CASES,
                         ids=[_key(*case) for case in _CASES])
def test_golden_scores(golden, mechanism, noise, method):
    want = golden[_key(mechanism, noise, method)]
    got = _compute(mechanism, noise, method)
    assert got["direction"] == want["direction"]
    for field in ("score_xy", "score_yx"):
        assert float(got[field]) == pytest.approx(float(want[field]), rel=RTOL, abs=0.0)


if __name__ == "__main__":
    record = {_key(*case): _compute(*case) for case in _CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
