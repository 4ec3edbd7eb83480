"""Tests for the ``python -m repro.bench`` entry point."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.configs import (
    ExperimentScale,
    LaplaceScale,
    NavierStokesScale,
    PinnScale,
)

#: Small enough for test wall times, large enough that a gradient or an
#: update step costs far more than the per-iteration span bookkeeping the
#: phase-coverage check tolerates (``MAX_UNSPANNED_S_PER_ITER``).
TINY_SCALE = ExperimentScale(
    name="tiny",
    laplace=LaplaceScale(nx=26, iterations=150),
    pinn=PinnScale(
        laplace_epochs=30,
        laplace_hidden=(8, 8),
        laplace_omegas=(1.0,),
        n_interior=60,
        n_boundary=12,
    ),
)

#: Ceiling on optimisation-loop wall time per iteration that no phase span
#: covers.  Span bookkeeping measures 25-55 µs; a gradient or update
#: moved out of its span adds at least ~180 µs at TINY_SCALE.
MAX_UNSPANNED_S_PER_ITER = 150e-6


class TestCLI:
    def test_laplace_only_skip_pinn(self, capsys):
        rc = main(["--skip-pinn", "--problem", "laplace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TABLE 3" in out
        assert "laplace" in out
        assert "navier-stokes" not in out

    def test_invalid_problem_rejected(self):
        with pytest.raises(SystemExit):
            main(["--problem", "burgers"])

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["--methods", "dal,magic"])

    def test_methods_subset(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        rc = main(["--methods", "dp", "--problem", "laplace"])
        assert rc == 0
        out = capsys.readouterr().out
        # Only the DP run line appears; DAL and PINN never execute (the
        # table still prints their columns, dashed out).
        assert "|   DP | J=" in out
        assert "|  DAL | J=" not in out
        assert "| PINN | J=" not in out


class TestProfileArtifacts:
    def test_profile_dir_writes_valid_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        out_dir = tmp_path / "prof"
        rc = main([
            "--methods", "dal,dp", "--problem", "laplace",
            "--profile-dir", str(out_dir),
        ])
        assert rc == 0

        for method in ("dal", "dp"):
            trace = json.loads((out_dir / f"laplace_{method}.trace.json").read_text())
            # traceEvents schema: every event has name/ph/pid/tid; complete
            # events carry non-negative µs timestamps and durations.
            assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
            for ev in trace["traceEvents"]:
                assert {"name", "ph", "pid", "tid"} <= set(ev)
                assert ev["ph"] in ("X", "M")
                if ev["ph"] == "X":
                    assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0
            assert trace["metadata"]["method"] == method.upper()
            assert trace["metadata"]["problem"] == "laplace"

            metrics = json.loads(
                (out_dir / f"laplace_{method}.metrics.json").read_text()
            )
            assert metrics["kind"] == "repro.profile.metrics"
            wall = metrics["meta"]["wall_time_s"]
            phase_sum = sum(metrics["phase_seconds"].values())
            # The grad/eval/update phases partition the optimisation loop:
            # they fit inside the wall time and leave out only span
            # bookkeeping, never a gradient or an update.
            assert 0.0 < phase_sum <= wall
            gap_per_iter = (wall - phase_sum) / TINY_SCALE.laplace.iterations
            assert gap_per_iter < MAX_UNSPANNED_S_PER_ITER
            # The migrated cache counters ride along in the snapshot.
            assert "cache.lu-cache.hits" in metrics["metrics"]

    def test_pinn_profile_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        out_dir = tmp_path / "prof"
        rc = main([
            "--methods", "pinn", "--problem", "laplace",
            "--profile-dir", str(out_dir),
        ])
        assert rc == 0
        trace = json.loads((out_dir / "laplace_pinn.trace.json").read_text())
        cats = {ev.get("cat") for ev in trace["traceEvents"] if ev["ph"] == "X"}
        assert "phase" in cats and "method" in cats
        metrics = json.loads((out_dir / "laplace_pinn.metrics.json").read_text())
        assert set(metrics["phase_seconds"]) >= {"grad", "update"}

    def test_profile_env_var_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        out_dir = tmp_path / "envprof"
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(out_dir))
        rc = main(["--methods", "dp", "--problem", "laplace"])
        assert rc == 0
        assert (out_dir / "laplace_dp.trace.json").exists()


class TestWatchdogFlag:
    def test_watchdog_flag_runs_clean_and_uninstalls(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        from repro.obs.health import current_watchdog

        rc = main(["--methods", "dp", "--problem", "laplace", "--watchdog"])
        assert rc == 0
        assert current_watchdog() is None  # scoped install, restored
        # A healthy Laplace DP run raises no health events.
        assert "watchdog:" not in capsys.readouterr().err


class TestJobsFanOut:
    def test_jobs_matrix_matches_serial(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        serial_dir, par_dir = tmp_path / "serial", tmp_path / "par"
        assert main(["--methods", "dal,dp", "--problem", "laplace",
                     "--trace-dir", str(serial_dir)]) == 0
        assert main(["--methods", "dal,dp", "--problem", "laplace",
                     "--trace-dir", str(par_dir), "--jobs", "2"]) == 0
        capsys.readouterr()

        from repro.obs import TolerancePolicy, TraceRecorder, diff_traces

        for stem in ("laplace_dal", "laplace_dp"):
            a = TraceRecorder.from_jsonl(str(serial_dir / f"{stem}.jsonl"))
            b = TraceRecorder.from_jsonl(str(par_dir / f"{stem}.jsonl"))
            assert diff_traces(a, b, TolerancePolicy()) == []

    def test_ns_matrix_serial_matches_fanned(self, tmp_path, monkeypatch, capsys):
        # DAL and DP share one problem, so one pressure LU.  Each entry
        # counts only its own solves in either mode: serially, DP's
        # pressure-lu-cache record must not include DAL's solves.
        tiny_ns = ExperimentScale(
            name="tiny-ns", ns=NavierStokesScale(nx=13, ny=7, iterations=4))
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: tiny_ns)
        dirs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in dirs.items():
            assert main(["--methods", "dal,dp", "--problem", "ns", "--jobs", jobs,
                         "--trace-dir", str(out)]) == 0
        capsys.readouterr()

        from repro.obs import TraceRecorder, diff_traces

        for stem in ("navier-stokes_dal", "navier-stokes_dp", "bench_merged"):
            a, b = (TraceRecorder.from_jsonl(str(d / f"{stem}.jsonl"))
                    for d in dirs.values())
            assert diff_traces(a, b) == [], stem

    def test_jobs_merges_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        trace_dir, prof_dir = tmp_path / "traces", tmp_path / "prof"
        rc = main([
            "--methods", "dal,dp", "--problem", "laplace", "--jobs", "2",
            "--trace-dir", str(trace_dir), "--profile-dir", str(prof_dir),
        ])
        assert rc == 0
        capsys.readouterr()

        merged_trace = json.loads((prof_dir / "bench_merged.trace.json").read_text())
        pids = {e["pid"] for e in merged_trace["traceEvents"] if e.get("ph") == "X"}
        assert len(pids) >= 2  # every worker keeps its own track
        merged_metrics = json.loads(
            (prof_dir / "bench_merged.metrics.json").read_text()
        )
        assert merged_metrics["kind"] == "repro.profile.metrics"
        assert len(merged_metrics["meta"]["merged_from"]) == 2

        from repro.obs import TraceRecorder

        merged = TraceRecorder.from_jsonl(str(trace_dir / "bench_merged.jsonl"))
        assert len(merged.meta["merged_from"]) == 2
        assert merged.iterations  # shard records made it across

    def test_jobs_single_entry_parallelises_line_search(self, monkeypatch, capsys):
        two_omega = ExperimentScale(
            name="tiny2",
            laplace=TINY_SCALE.laplace,
            pinn=PinnScale(
                laplace_epochs=30,
                laplace_hidden=(8, 8),
                laplace_omegas=(1e-1, 1.0),
                n_interior=60,
                n_boundary=12,
            ),
        )
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: two_omega)
        serial = main(["--methods", "pinn", "--problem", "laplace"])
        out_serial = capsys.readouterr().out
        pooled = main(["--methods", "pinn", "--problem", "laplace",
                       "--jobs", "2"])
        out_pooled = capsys.readouterr().out
        assert serial == pooled == 0
        j = [ln for ln in out_serial.splitlines() if "| PINN | J=" in ln]
        k = [ln for ln in out_pooled.splitlines() if "| PINN | J=" in ln]
        # Identical cost and omega* — wall time may differ.
        assert j[0].split("| J=")[1].split("|")[0] == \
            k[0].split("| J=")[1].split("|")[0]
        assert ("omega*" in out_serial) and ("omega*" in out_pooled)
        assert out_serial.split("omega* = ")[1].split(")")[0] == \
            out_pooled.split("omega* = ")[1].split(")")[0]


class TestJobsFoldParity:
    """The fanned matrix's ``bench_merged.*`` set is the fold of its runs:
    it equals the per-run artifacts summed (spans, phases, registry) and
    concatenated in matrix order (records)."""

    def test_merged_set_is_the_sum_of_the_runs(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr("repro.bench.__main__.get_scale", lambda: TINY_SCALE)
        trace_dir, prof_dir = tmp_path / "traces", tmp_path / "prof"
        assert main([
            "--methods", "dal,dp", "--problem", "laplace", "--jobs", "2",
            "--trace-dir", str(trace_dir), "--profile-dir", str(prof_dir),
        ]) == 0
        capsys.readouterr()
        stems = ("laplace_dal", "laplace_dp")

        from repro.obs import MetricsRegistry

        runs = [json.loads((prof_dir / f"{s}.metrics.json").read_text())
                for s in stems]
        merged = json.loads((prof_dir / "bench_merged.metrics.json").read_text())
        assert [(m["method"], m["problem"]) for m in
                merged["meta"]["merged_from"]] == [("DAL", "laplace"),
                                                   ("DP", "laplace")]

        rows = {}
        for run in runs:
            for r in run["spans"]:
                row = rows.setdefault((r["name"], r["category"]),
                                      {"calls": 0, "seconds": 0.0,
                                       "self_seconds": 0.0})
                row["calls"] += r["calls"]
                row["seconds"] += r["seconds"]
                row["self_seconds"] += r["self_seconds"]
        got = {(r["name"], r["category"]): r for r in merged["spans"]}
        assert set(got) == set(rows)
        for key, want in rows.items():
            assert got[key]["calls"] == want["calls"], key
            for field in ("seconds", "self_seconds"):
                assert got[key][field] == pytest.approx(want[field],
                                                        abs=1e-6), key

        phases = {}
        for run in runs:
            for name, sec in run["phase_seconds"].items():
                phases[name] = phases.get(name, 0.0) + sec
        assert set(merged["phase_seconds"]) == set(phases)
        for name, sec in phases.items():
            assert merged["phase_seconds"][name] == pytest.approx(sec, abs=1e-6)

        summed = MetricsRegistry()
        for run in runs:
            summed.merge_snapshot(run["metrics"])
        summed = summed.snapshot()
        assert summed
        for key, value in summed.items():
            assert merged["metrics"][key] == value, key

        def record_lines(path):
            lines = path.read_text().splitlines()
            return lines[1:]  # after the header

        assert record_lines(trace_dir / "bench_merged.jsonl") == [
            line for s in stems for line in record_lines(trace_dir / f"{s}.jsonl")
        ]


class TestFailedEntry:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_entry_exits_nonzero(self, monkeypatch, capfd, jobs):
        """A failed entry loses its own row: the other rows and the table
        still print, and the exit status is 1, serial and fanned alike."""
        from repro.bench import __main__ as cli

        monkeypatch.setattr(cli, "get_scale", lambda: TINY_SCALE)
        real_run = cli.run

        def run(spec, **kwargs):
            if spec.method == "dal":
                raise RuntimeError("injected DAL failure")
            return real_run(spec, **kwargs)

        monkeypatch.setattr(cli, "run", run)
        rc = main(["--methods", "dal,dp", "--problem", "laplace",
                   "--jobs", jobs])
        out, err = capfd.readouterr()
        assert rc == 1
        assert "|   DP | J=" in out
        assert "|  DAL | J=" not in out
        assert "TABLE 3" in out
        assert "laplace/dal: FAILED" in err
        assert "injected DAL failure" in err
