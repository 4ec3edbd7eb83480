"""The boolean env-switch parser and its wiring into the bench flags."""

import pytest

from repro.bench.configs import is_compile_enabled, is_full_scale, watchdog_enabled
from repro.utils.env import env_flag

TRUTHY_SPELLINGS = ["1", "true", "TRUE", "True", " 1 ", "yes", "YES", "on", "On"]
FALSY_SPELLINGS = ["0", " 0 ", "false", "FALSE", "False", "no", "NO", "off", "Off"]


class TestEnvFlag:
    @pytest.mark.parametrize("raw", TRUTHY_SPELLINGS)
    def test_truthy_matrix(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X") is True
        assert env_flag("REPRO_X", default=False) is True

    @pytest.mark.parametrize("raw", FALSY_SPELLINGS)
    def test_falsy_matrix(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X") is False
        # An explicit falsy spelling beats a truthy default.
        assert env_flag("REPRO_X", default=True) is False

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_resolves_to_default(self, monkeypatch, default):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_flag("REPRO_X", default=default) is default

    @pytest.mark.parametrize("raw", ["", "   "])
    @pytest.mark.parametrize("default", [True, False])
    def test_empty_resolves_to_default(self, monkeypatch, raw, default):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X", default=default) is default

    @pytest.mark.parametrize("raw", ["ture", "2", "enable", "y e s"])
    def test_typo_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        with pytest.raises(ValueError, match="REPRO_X"):
            env_flag("REPRO_X")


class TestFlagWiring:
    """Every REPRO_* boolean goes through the one parser.

    These pin the historical bug: ``REPRO_FULL=FALSE``, ``=no`` and
    ``=" 0 "`` used to count as *truthy* because each flag hand-rolled
    its own falsy set.
    """

    @pytest.mark.parametrize("raw", FALSY_SPELLINGS)
    def test_full_scale_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FULL", raw)
        assert not is_full_scale()

    @pytest.mark.parametrize("raw", TRUTHY_SPELLINGS)
    def test_full_scale_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FULL", raw)
        assert is_full_scale()

    @pytest.mark.parametrize("raw", FALSY_SPELLINGS)
    def test_watchdog_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WATCHDOG", raw)
        assert not watchdog_enabled()

    @pytest.mark.parametrize("raw", TRUTHY_SPELLINGS)
    def test_watchdog_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WATCHDOG", raw)
        assert watchdog_enabled()

    def test_watchdog_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "no")
        assert watchdog_enabled(cli_value=True)

    @pytest.mark.parametrize("raw", FALSY_SPELLINGS)
    def test_compile_mode_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_COMPILE", raw)
        assert is_compile_enabled() is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("", False),
    ])
    def test_compile_mode_tristate(self, monkeypatch, raw, expected):
        """REPRO_COMPILE has three outcomes: on, off, or a ValueError."""
        monkeypatch.setenv("REPRO_COMPILE", raw)
        assert is_compile_enabled() is expected

    @pytest.mark.parametrize("raw", ["replay", "REPLAY", "codegen", "CodeGen"])
    def test_compile_rejects_tier_names(self, monkeypatch, raw):
        # There is one compiled tier: former tier names are not booleans.
        monkeypatch.setenv("REPRO_COMPILE", raw)
        with pytest.raises(ValueError, match="REPRO_COMPILE"):
            is_compile_enabled()

    def test_compile_mode_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE", "codgen")
        with pytest.raises(ValueError, match="REPRO_COMPILE"):
            is_compile_enabled()
