import json
from collections import Counter

import numpy as np
import pytest

import serve_mix

N_CONTROL = 24
NS_INFLOW = np.linspace(0.0, 1.0, 11) * (1.0 - np.linspace(0.0, 1.0, 11)) * 4.0


def draw(seed, client, n):
    stream = serve_mix.ServeStream(seed, client, N_CONTROL, NS_INFLOW)
    return [stream.next() for _ in range(n)]


def as_bytes(items):
    return [(kind, json.dumps(req, sort_keys=True)) for kind, req in items]


def test_stream_is_deterministic_per_seed_and_client():
    assert as_bytes(draw(3, 0, 500)) == as_bytes(draw(3, 0, 500))
    assert as_bytes(draw(3, 0, 500)) != as_bytes(draw(4, 0, 500))
    assert as_bytes(draw(3, 0, 500)) != as_bytes(draw(3, 1, 500))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_mix_proportions_within_three_points(seed):
    n = 4000
    counts = Counter(kind for kind, _ in draw(seed, 0, n))
    for kind, share in serve_mix.MIX:
        assert abs(counts[kind] / n - share) <= 0.03, (kind, counts[kind] / n)


def test_every_deck_after_the_prefix_holds_the_exact_mix():
    kinds = [kind for kind, _ in draw(2, 0, len(serve_mix.WARM_PREFIX) + 200)]
    body = kinds[len(serve_mix.WARM_PREFIX):]
    deck = len(serve_mix.DECK)
    for start in range(0, len(body), deck):
        counts = Counter(body[start:start + deck])
        assert counts == {kind: round(deck * share) for kind, share in serve_mix.MIX}
    solves = [req["iterations"] for kind, req in draw(2, 0, 2000)
              if kind.startswith("solve")]
    for start in range(0, len(solves) - 2, 3):
        assert sorted(solves[start:start + 3]) == list(serve_mix.ITERATIONS)


def test_stream_starts_with_every_program_path():
    kinds = [kind for kind, _ in draw(0, 1, len(serve_mix.WARM_PREFIX))]
    assert kinds == list(serve_mix.WARM_PREFIX)


def test_replays_resubmit_an_earlier_solve_byte_for_byte():
    seen = set()
    replays = 0
    for kind, req in as_bytes(draw(5, 0, 2000)):
        if kind == "replay":
            replays += 1
            assert req in seen
        elif kind.startswith("solve"):
            assert req not in seen  # every fresh solve is distinct
            seen.add(req)
    assert replays > 0


def test_requests_have_the_served_shapes():
    for kind, req in draw(2, 0, 300):
        if kind == "evaluate":
            assert req["family"] == "laplace" and len(req["control"]) == N_CONTROL
        elif kind == "evaluate_ns":
            assert req["family"] == "ns" and len(req["control"]) == NS_INFLOW.size
        else:
            assert req["kind"] == "solve" and req["iterations"] in (20, 40, 60)
            assert 0.005 <= req["lr"] < 0.02
