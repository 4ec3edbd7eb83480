"""Golden-trace regression tests.

Each test runs one tier-0 config (seconds-fast, fully deterministic) and
compares its trace against the committed baseline in ``tests/goldens/``
under the default :class:`~repro.obs.compare.TolerancePolicy` — exact on
structure, relative on trajectories, timings excluded.

To rebless the baselines after an intentional behaviour change::

    pytest tests/obs/test_goldens.py --regen-goldens

then commit the rewritten ``tests/goldens/*.jsonl`` with an explanation
of why the convergence behaviour changed.
"""

from pathlib import Path

import pytest

from repro.obs.compare import diff_traces, format_diff
from repro.obs.goldens import TIER0, run_tier0
from repro.obs.recorder import TraceRecorder

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"

#: Configs with a committed baseline (one Laplace + one Navier–Stokes).
GOLDEN_CONFIGS = ("laplace_dp_tier0", "ns_dp_tier0")


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.jsonl"


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_trace_matches_golden(name, regen_goldens):
    trace = run_tier0(name)
    path = _golden_path(name)
    if regen_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        trace.to_jsonl(path)
        pytest.skip(f"reblessed golden baseline: {path}")
    baseline = TraceRecorder.from_jsonl(path)
    devs = diff_traces(baseline, trace)
    assert devs == [], format_diff(devs)


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_compiled_trace_differs_from_golden_only_in_caches(name, regen_goldens):
    # The goldens record the eager tape.  The compiled tier (the DP
    # default) runs the same iterations bit for bit: its trace differs
    # from the golden only in cache records (a compiled-replay record,
    # and the solves the program's validation call adds).
    if regen_goldens:
        pytest.skip("baselines are being reblessed")
    compiled = run_tier0(name, compile=True)
    baseline = TraceRecorder.from_jsonl(_golden_path(name))
    devs = diff_traces(baseline, compiled)
    assert {d.kind for d in devs} == {"cache"}, format_diff(devs)
    assert "compiled-replay" in {d.field for d in devs}
    eager = run_tier0(name)

    def steps(trace):
        return [(r.iteration, r.cost, r.grad_norm, r.step_size)
                for r in trace.iterations]

    assert steps(compiled) == steps(eager)


def test_same_config_reruns_agree():
    # The determinism premise of the golden layer, checked directly:
    # two fresh runs of one config may differ only in excluded timings.
    a = run_tier0("laplace_dal_tier0")
    b = run_tier0("laplace_dal_tier0")
    devs = diff_traces(a, b)
    assert devs == [], format_diff(devs)


def test_comparator_catches_injected_regression(regen_goldens):
    # Perturb one hyperparameter and the diff must flag it — this is
    # the end-to-end proof that the golden layer can actually fail.
    if regen_goldens:
        pytest.skip("baselines are being reblessed")
    baseline = TraceRecorder.from_jsonl(_golden_path("laplace_dp_tier0"))
    perturbed = run_tier0("laplace_dp_tier0", lr=2e-2)
    devs = diff_traces(baseline, perturbed)
    assert devs, "comparator accepted a run with a doubled learning rate"
    fields = {d.field for d in devs}
    assert "step_size" in fields  # the lr change itself
    assert "cost" in fields  # and its downstream trajectory change


def test_golden_traces_carry_identity_metadata():
    for name in GOLDEN_CONFIGS:
        baseline = TraceRecorder.from_jsonl(_golden_path(name))
        assert baseline.meta.get("config") == name
        assert baseline.meta.get("method") in ("DP", "DAL")
        assert baseline.meta.get("problem") in ("laplace", "navier-stokes")
        assert len(baseline.iterations) == TIER0[name].iterations


def test_record_unknown_config_is_a_usage_error(capsys):
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["record", "no_such_tier0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no_such_tier0" in err
    assert all(name in err for name in TIER0)
    # The library call itself keeps raising KeyError.
    with pytest.raises(KeyError, match="available"):
        run_tier0("no_such_tier0")


def test_record_profile_dir_writes_trace_and_metrics(tmp_path, capsys):
    import json

    from repro.obs.__main__ import main

    out = tmp_path / "laplace_dp_tier0.jsonl"
    assert main(["record", "laplace_dp_tier0", "--out", str(out),
                 "--profile-dir", str(tmp_path / "prof")]) == 0
    assert sorted(p.name for p in (tmp_path / "prof").iterdir()) == [
        "laplace_dp_tier0.metrics.json", "laplace_dp_tier0.trace.json",
    ]
    trace = json.loads((tmp_path / "prof/laplace_dp_tier0.trace.json").read_text())
    metrics = json.loads(
        (tmp_path / "prof/laplace_dp_tier0.metrics.json").read_text()
    )
    assert trace["metadata"]["label"] == "laplace_dp_tier0"
    assert metrics["kind"] == "repro.profile.metrics"
    assert metrics["meta"] == {k: trace["metadata"][k]
                               for k in ("label", "wall_time_s")}
    assert metrics["phase_seconds"] and metrics["spans"]


def test_iterative_run_traces_krylov_solves():
    # The Krylov solver reports to the installed recorder, so a tier-0
    # run on the iterative backend carries its solves in the trace next
    # to the iterations they served.
    from repro.obs.health import watching

    with watching():
        trace = run_tier0("laplace_dp_tier0", backend="local", solver="iterative")
    krylov = [e for e in trace.solver_events if e.solver == "sparse-krylov"]
    solves = [e for e in krylov if e.event in ("solve", "adjoint")]
    assert solves
    assert all(e.iterations >= 1 for e in solves)
    assert len(trace.iterations) == TIER0["laplace_dp_tier0"].iterations
