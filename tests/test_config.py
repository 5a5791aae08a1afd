"""Layering, parsing and validation of the run configuration."""

import math

import pytest

from moyalmetric.config import (
    ENV_PREFIX,
    ConfigError,
    RunConfig,
    format_value,
    load_config_file,
    resolve_config,
)


class TestDefaults:
    def test_field_defaults(self):
        cfg = RunConfig()
        assert cfg.trunc_dim == 64
        assert cfg.theta == 1.0
        assert cfg.tol == 1e-10
        assert cfg.solver_seed == 0
        assert cfg.solver_iterations == 2000
        assert cfg.solver_restarts == 8
        assert cfg.leakage_bound == 1e-10
        assert cfg.output_dir == "out"

    def test_context_bridge_carries_all_shared_fields(self):
        ctx = RunConfig(trunc_dim=32, theta=2.0, tol=1e-9, leakage_bound=1e-7).context()
        assert ctx.trunc_dim == 32
        assert ctx.theta == 2.0
        assert ctx.tol == 1e-9
        assert ctx.leakage_bound == 1e-7

    def test_solver_bridge(self):
        solver = RunConfig(solver_seed=5, solver_iterations=77, solver_restarts=3).solver()
        assert (solver.seed, solver.iterations, solver.restarts) == (5, 77, 3)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trunc_dim": 4},
            {"theta": 0.0},
            {"theta": -1.0},
            {"theta": math.inf},
            {"tol": 0.0},
            {"solver_iterations": 0},
            {"solver_restarts": 0},
            {"leakage_bound": 0.0},
            {"output_dir": ""},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


class TestFileLayer:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep settings\n"
            "\n"
            "trunc-dim = 32\n"
            "theta=0.5   # inline note\n"
            "OUTPUT_DIR = results\n"
        )
        values = load_config_file(str(path))
        assert values == {"trunc_dim": 32, "theta": 0.5, "output_dir": "results"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("granularity = 3\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            load_config_file(str(path))

    def test_bad_type_rejected_with_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = soup\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            load_config_file(str(path))

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta 0.5\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(str(tmp_path / "absent.cfg"))


class TestPrecedence:
    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = 2.0\n")
        cfg = resolve_config(file_path=str(path), env={})
        assert cfg.theta == 2.0

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = 2.0\n")
        cfg = resolve_config(file_path=str(path), env={ENV_PREFIX + "THETA": "3.0"})
        assert cfg.theta == 3.0

    def test_flag_beats_env(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta = 2.0\n")
        cfg = resolve_config(
            file_path=str(path),
            env={ENV_PREFIX + "THETA": "3.0"},
            overrides={"theta": 4.0},
        )
        assert cfg.theta == 4.0

    def test_none_override_means_flag_not_given(self):
        cfg = resolve_config(env={ENV_PREFIX + "TRUNC_DIM": "48"}, overrides={"trunc_dim": None})
        assert cfg.trunc_dim == 48

    def test_bad_env_value_rejected(self):
        with pytest.raises(ConfigError, match="MOYAL_TRUNC_DIM"):
            resolve_config(env={ENV_PREFIX + "TRUNC_DIM": "many"})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            resolve_config(env={}, overrides={"granularity": 3})

    def test_unrelated_env_ignored(self):
        cfg = resolve_config(env={"MOYALISH": "9", "PATH": "/bin"})
        assert cfg == RunConfig()


class TestEcho:
    def test_header_lines_cover_every_field_in_order(self):
        lines = RunConfig().header_lines()
        assert lines[0] == "# trunc_dim = 64"
        assert lines[1] == "# theta = 1"
        assert lines[2] == "# tol = 1e-10"
        assert lines[-1] == "# output_dir = out"
        assert len(lines) == 8
        assert all(line.startswith("# ") for line in lines)

    def test_format_value_fixed_float_style(self):
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(2.0) == "2"
        assert format_value(1e-10) == "1e-10"
        assert format_value(32) == "32"
        assert format_value("out") == "out"
