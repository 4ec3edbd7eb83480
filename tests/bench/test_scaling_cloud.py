"""Tests for the ``python -m repro.bench.scaling_cloud`` entry point."""

from repro.bench.scaling_cloud import main
from repro.parallel import resolve_jobs


def test_jobs_defaults_to_repro_jobs(monkeypatch, capsys):
    seen = []

    def fake_run_tasks(tasks, jobs=None, **kwargs):
        seen.append(jobs)
        return []

    monkeypatch.setattr("repro.parallel.run_tasks", fake_run_tasks)
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main(["--sizes", "1024"]) == 0
    capsys.readouterr()
    assert len(seen) == 1
    assert resolve_jobs(seen[0]) == 2
