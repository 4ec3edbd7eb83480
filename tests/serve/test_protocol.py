"""Request validation and digesting."""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    MAX_ITERATIONS,
    MAX_NX,
    ControlRequest,
    RequestError,
    parse_request,
    request_digest,
)


def _solve(**over):
    base = {"family": "laplace", "kind": "solve", "method": "dp",
            "iterations": 5}
    base.update(over)
    return base


def _evaluate(**over):
    base = {"family": "laplace", "kind": "evaluate", "control": [0.0] * 3}
    base.update(over)
    return base


class TestValidation:
    def test_minimal_solve_parses_with_defaults(self):
        req = parse_request(_solve())
        assert isinstance(req, ControlRequest)
        assert (req.family, req.kind, req.method) == ("laplace", "solve", "dp")
        assert req.nx == 26 and req.ny == 0  # ny is ns-only
        assert req.lr > 0

    def test_minimal_evaluate_parses(self):
        req = parse_request(_evaluate())
        assert req.kind == "evaluate"
        assert req.control == (0.0, 0.0, 0.0)
        # Evaluation never optimises: method/iterations are forced.
        assert req.method == "dp" and req.iterations == 0

    @pytest.mark.parametrize("mutation, message", [
        ({"family": "heat"}, "family"),
        ({"kind": "train"}, "kind"),
        ({"method": "sgd"}, "method"),
        ({"bogus": 1}, "bogus"),
        ({"nx": 0}, "nx"),
        ({"nx": MAX_NX + 1}, "nx"),
        ({"iterations": MAX_ITERATIONS + 1}, "iterations"),
        ({"iterations": -1}, "iterations"),
        ({"lr": 0.0}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"seed": "abc"}, "seed"),
    ])
    def test_bad_fields_rejected(self, mutation, message):
        with pytest.raises(RequestError, match=message):
            parse_request(_solve(**mutation))

    def test_not_an_object_rejected(self):
        with pytest.raises(RequestError):
            parse_request([1, 2, 3])

    def test_ns_pinn_rejected(self):
        with pytest.raises(RequestError, match="pinn"):
            parse_request(_solve(family="ns", method="pinn"))

    def test_target_is_laplace_only(self):
        with pytest.raises(RequestError, match="target"):
            parse_request(_solve(family="ns", target=[0.1, 0.2]))

    def test_evaluate_requires_control(self):
        with pytest.raises(RequestError, match="control"):
            parse_request({"family": "laplace", "kind": "evaluate"})

    def test_solve_rejects_control(self):
        with pytest.raises(RequestError, match="control"):
            parse_request(_solve(control=[0.0]))

    def test_control_must_be_finite_numbers(self):
        with pytest.raises(RequestError, match="control"):
            parse_request(_evaluate(control=[0.0, float("inf")]))
        with pytest.raises(RequestError, match="control"):
            parse_request(_evaluate(control=["a", "b"]))


class TestDigest:
    def test_digest_is_stable_and_prefixed(self):
        a = request_digest(parse_request(_solve()))
        b = request_digest(parse_request(_solve()))
        assert a == b
        assert a.startswith("sha256:")

    def test_digest_covers_every_field(self):
        base = request_digest(parse_request(_solve()))
        assert request_digest(parse_request(_solve(iterations=6))) != base
        assert request_digest(parse_request(_solve(seed=1))) != base
        assert request_digest(parse_request(_solve(lr=2e-2))) != base

    def test_digest_ignores_input_key_order(self):
        spec = _solve(tolerance=1e-6)
        reordered = dict(reversed(list(spec.items())))
        assert (request_digest(parse_request(spec))
                == request_digest(parse_request(reordered)))

