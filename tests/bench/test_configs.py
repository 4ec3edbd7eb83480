"""Tests for benchmark scale configuration."""

import os

import pytest

from repro.bench.configs import (
    DEFAULT_SCALE,
    FULL_SCALE,
    artifact_dir,
    get_scale,
    is_full_scale,
    profile_dir,
    trace_dir,
    watchdog_enabled,
)


class TestScaleSelection:
    def test_default_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not is_full_scale()
        assert get_scale().name == "default"

    def test_full_when_env_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert is_full_scale()
        assert get_scale().name == "full"

    def test_falsy_values(self, monkeypatch):
        for v in ("0", "", "false", "False"):
            monkeypatch.setenv("REPRO_FULL", v)
            assert not is_full_scale()


class TestArtifactDirPrecedence:
    """CLI flag > environment variable > disabled, for both artifact kinds."""

    def test_unset_everywhere_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        monkeypatch.delenv("REPRO_PROFILE_DIR", raising=False)
        assert trace_dir() is None
        assert profile_dir() is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/traces")
        monkeypatch.setenv("REPRO_PROFILE_DIR", "/tmp/profiles")
        assert trace_dir() == "/tmp/traces"
        assert profile_dir() == "/tmp/profiles"

    def test_cli_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/from-env")
        monkeypatch.setenv("REPRO_PROFILE_DIR", "/tmp/from-env")
        assert trace_dir("/tmp/from-cli") == "/tmp/from-cli"
        assert profile_dir("/tmp/from-cli") == "/tmp/from-cli"

    def test_blank_values_mean_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_DIR", "   ")
        assert profile_dir() is None
        # An explicit empty CLI value also disables (and masks the env).
        monkeypatch.setenv("REPRO_PROFILE_DIR", "/tmp/from-env")
        assert profile_dir("") is None

    def test_shared_helper_directly(self, monkeypatch):
        monkeypatch.setenv("SOME_DIR", "/tmp/env")
        assert artifact_dir(None, "SOME_DIR") == "/tmp/env"
        assert artifact_dir("/tmp/cli", "SOME_DIR") == "/tmp/cli"
        assert artifact_dir("", "SOME_DIR") is None
        monkeypatch.delenv("SOME_DIR")
        assert artifact_dir(None, "SOME_DIR") is None


class TestWatchdogSwitch:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        assert watchdog_enabled() is False

    def test_cli_flag_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        assert watchdog_enabled(True) is True

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "1")
        assert watchdog_enabled() is True

    def test_falsy_env_spellings(self, monkeypatch):
        for v in ("0", "", "false", "False"):
            monkeypatch.setenv("REPRO_WATCHDOG", v)
            assert watchdog_enabled() is False

    def test_cli_flag_overrides_falsy_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "0")
        assert watchdog_enabled(True) is True


class TestPaperAlignment:
    """The *full* tier must match the paper's printed hyperparameters."""

    def test_ns_refinements(self):
        assert FULL_SCALE.ns.refinements_dal == 3
        assert FULL_SCALE.ns.refinements_dp == 10

    def test_ns_iterations(self):
        assert FULL_SCALE.ns.iterations == 350

    def test_laplace_iterations(self):
        assert FULL_SCALE.laplace.iterations == 500

    def test_pinn_epochs(self):
        assert FULL_SCALE.pinn.laplace_epochs == 20000

    def test_pinn_omega_ranges(self):
        assert len(FULL_SCALE.pinn.laplace_omegas) == 11  # 1e-3 … 1e7
        assert len(FULL_SCALE.pinn.ns_omegas) == 9  # 1e-3 … 1e5

    def test_lr_values(self):
        assert DEFAULT_SCALE.laplace.lr_dal == 1e-2
        assert DEFAULT_SCALE.ns.lr == 1e-1
        assert FULL_SCALE.pinn.laplace_lr == 1e-3

    def test_default_tier_is_smaller(self):
        assert DEFAULT_SCALE.laplace.nx < FULL_SCALE.laplace.nx
        assert DEFAULT_SCALE.pinn.laplace_epochs < FULL_SCALE.pinn.laplace_epochs
