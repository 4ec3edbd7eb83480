"""Warm-worker job execution: caches, coalesced evaluation, typed errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.protocol import parse_request, request_digest
from repro.serve.worker import WorkerState, execute_job


@pytest.fixture(scope="module")
def state():
    """One warm worker state shared by the module (caches persist)."""
    return WorkerState(root_seed=0)


def _job_solve(**over):
    spec = {"family": "laplace", "kind": "solve", "method": "dp",
            "iterations": 4}
    spec.update(over)
    req = parse_request(spec)
    return {"op": "solve", "request": req, "digest": request_digest(req)}


def _job_evaluate(controls, **over):
    requests = []
    for c in controls:
        spec = {"family": "laplace", "kind": "evaluate", "control": list(c)}
        spec.update(over)
        requests.append(parse_request(spec))
    return {"op": "evaluate", "requests": requests}


@pytest.fixture(scope="module")
def n_control(state):
    return state.problem(_job_solve()["request"]).n_control


def test_solve_returns_cost_and_control(state, n_control):
    reply = execute_job(state, _job_solve())
    assert reply["ok"], reply
    result = reply["result"]
    assert result["kind"] == "solve"
    assert np.isfinite(result["final_cost"])
    assert len(result["control"]) == n_control
    assert result["converged"] is None  # no tolerance given


def test_solve_repeat_replays_compiled_program(state):
    before = state.cache_obs()["compiled-replay"]
    reply = execute_job(state, _job_solve(iterations=3, lr=2e-2))
    assert reply["ok"]
    after = state.cache_obs()["compiled-replay"]
    # Same oracle key as the previous solve: zero new traces, only replays.
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


def test_coalesced_evaluate_matches_individual(state, n_control):
    rng = np.random.default_rng(7)
    controls = rng.normal(scale=0.2, size=(4, n_control))
    batched = execute_job(state, _job_evaluate(controls))
    assert batched["ok"]
    costs = [r["cost"] for r in batched["results"]]
    for c, batched_cost in zip(controls, costs):
        single = execute_job(state, _job_evaluate([c]))
        assert single["results"][0]["cost"] == pytest.approx(
            batched_cost, rel=1e-12
        )


def test_batch_shares_one_factorisation(state, n_control):
    before = state.cache_obs()["lu-cache"]
    reply = execute_job(
        state, _job_evaluate(np.zeros((5, n_control)) + 0.1)
    )
    assert reply["ok"]
    after = state.cache_obs()["lu-cache"]
    assert after["misses"] == before["misses"]  # no new factorisation
    assert after["hits"] > before["hits"]


def test_per_item_length_error_does_not_poison_batch(state, n_control):
    good = [0.0] * n_control
    bad = [0.0] * (n_control + 1)
    reply = execute_job(state, _job_evaluate([good, bad, good]))
    assert reply["ok"]
    ok0, err, ok2 = reply["results"]
    assert "cost" in ok0 and "cost" in ok2
    assert err["error"]["type"] == "RequestError"
    assert "control" in err["error"]["message"]


def test_coalesced_evaluate_matches_independent_dal_oracle(state, n_control):
    # The served evaluate against a separately built LaplaceDAL oracle:
    # 3 plain controls, 1 with its own target, and 1 of the wrong length
    # in the middle of the coalesced job.
    import copy

    from repro.control.dal import LaplaceDAL

    prob = state.problem(_job_solve()["request"])
    rng = np.random.default_rng(11)
    controls = rng.normal(scale=0.2, size=(4, n_control))
    target = prob.target + rng.normal(scale=0.1, size=prob.target.shape)
    requests = _job_evaluate(controls[:2])["requests"]
    requests.append(parse_request({
        "family": "laplace", "kind": "evaluate",
        "control": [0.0] * (n_control - 1),
    }))
    requests.append(parse_request({
        "family": "laplace", "kind": "evaluate",
        "control": list(controls[2]), "target": list(target),
    }))
    requests += _job_evaluate(controls[3:])["requests"]
    reply = execute_job(state, {"op": "evaluate", "requests": requests})
    assert reply["ok"]
    results = reply["results"]
    assert len(results) == 5

    bad = results[2]
    assert bad["error"]["type"] == "RequestError"
    assert "control" in bad["error"]["message"]

    custom = copy.copy(prob)
    custom.target = target
    expected = [
        LaplaceDAL(prob).value(controls[0]),
        LaplaceDAL(prob).value(controls[1]),
        LaplaceDAL(custom).value(controls[2]),
        LaplaceDAL(prob).value(controls[3]),
    ]
    for slot, want in zip((0, 1, 3, 4), expected):
        assert results[slot]["kind"] == "evaluate"
        assert results[slot]["cost"] == pytest.approx(want, rel=1e-12, abs=0), slot


def test_wrong_target_length_is_typed_request_error(state):
    spec = {"family": "laplace", "kind": "solve", "method": "dp",
            "iterations": 1, "target": [0.5, 0.5]}
    req = parse_request(spec)
    reply = execute_job(state, {"op": "solve", "request": req,
                                "digest": request_digest(req)})
    assert not reply["ok"]
    assert reply["error"]["type"] == "RequestError"
    assert "target" in reply["error"]["message"]


def test_unknown_op_is_typed_request_error(state):
    reply = execute_job(state, {"op": "meditate"})
    assert not reply["ok"]
    assert reply["error"]["type"] == "RequestError"


def test_internal_errors_never_escape(state):
    # A malformed job (missing keys) must come back as a typed error,
    # not an exception through the pipe.
    reply = execute_job(state, {"op": "solve"})
    assert not reply["ok"]
    assert reply["error"]["type"] == "InternalError"
    assert "traceback" in reply["error"]


def test_tolerance_sets_converged_flag(state, n_control):
    loose = execute_job(
        state, _job_evaluate([[0.0] * n_control], tolerance=1e6)
    )
    assert loose["results"][0]["converged"] is True
    tight = execute_job(
        state, _job_evaluate([[0.0] * n_control], tolerance=1e-300)
    )
    assert tight["results"][0]["converged"] is False
