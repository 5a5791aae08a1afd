"""Layered run configuration shared by the command surface.

A run is parameterized by the truncation size, the deformation scale, the
numerical tolerance, the solver budget, the leakage bound and the output
directory.  Values resolve with precedence

    command-line flag  >  MOYAL_* environment variable  >  config file  >  default

and the effective configuration is echoed as a ``# key = value`` header into
every file a command writes, so an output file always records the settings
that produced it.  The config file is plain key-value text: one ``key =
value`` per line, ``#`` starts a comment, blank lines are ignored.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .fock import FockContext
from .spectral import SolverConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "ENV_PREFIX",
    "format_value",
    "load_config_file",
    "resolve_config",
]

ENV_PREFIX = "MOYAL_"


class ConfigError(ValueError):
    """Malformed configuration input (file contents or environment)."""


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one command run."""

    trunc_dim: int = 64
    theta: float = 1.0
    tol: float = 1e-10
    solver_iterations: int = 2000
    leakage_bound: float = 1e-10
    output_dir: str = "out"

    def __post_init__(self) -> None:
        # Building the context and the solver budget runs their own checks,
        # so a bad value fails before any work starts.
        try:
            self.context()
            self.solver()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not str(self.output_dir):
            raise ConfigError("output_dir must be a non-empty path")

    def context(self) -> FockContext:
        return FockContext(
            trunc_dim=self.trunc_dim,
            theta=self.theta,
            tol=self.tol,
            leakage_bound=self.leakage_bound,
        )

    def solver(self) -> SolverConfig:
        return SolverConfig(iterations=self.solver_iterations)

    def as_dict(self) -> dict[str, object]:
        """Field values in declaration order (the header/echo order)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def header_lines(self) -> list[str]:
        """The ``# key = value`` block prepended to every output file."""
        return [f"# {k} = {format_value(v)}" for k, v in self.as_dict().items()]


def format_value(value: object) -> str:
    """Fixed formatting for echoed/reported values: floats at 12 significant
    digits, everything else via str.  Shared by headers, CSV and JSON so a
    rerun with identical settings reproduces output files byte for byte."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


_FIELD_TYPES: dict[str, type] = {
    f.name: {"int": int, "float": float, "str": str}[f.type]
    for f in dataclasses.fields(RunConfig)
}


def _convert(key: str, raw: str, source: str) -> object:
    typ = _FIELD_TYPES[key]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return str(raw)
    except ValueError:
        raise ConfigError(f"{source}: {key} expects {typ.__name__}, got {raw!r}") from None


def _normalize_key(raw: str, source: str) -> str:
    key = raw.strip().lower().replace("-", "_")
    if key not in _FIELD_TYPES:
        known = ", ".join(sorted(_FIELD_TYPES))
        raise ConfigError(f"{source}: unknown configuration key {raw.strip()!r} (known: {known})")
    return key


def load_config_file(path: str) -> dict[str, object]:
    """Parse a key-value config file into typed overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.partition("#")[0].strip()
        if not body:
            continue
        key_raw, sep, value_raw = body.partition("=")
        if not sep or not value_raw.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key = _normalize_key(key_raw, f"{path}:{lineno}")
        out[key] = _convert(key, value_raw.strip(), f"{path}:{lineno}")
    return out


def _env_overrides(env: dict[str, str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for field in _FIELD_TYPES:
        name = ENV_PREFIX + field.upper()
        if name in env:
            out[field] = _convert(field, env[name], f"environment variable {name}")
    return out


def resolve_config(
    file_path: str | None = None,
    env: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> RunConfig:
    """Resolve the effective RunConfig from the three override layers.

    ``overrides`` holds already-typed values from command-line flags; keys
    mapping to None are treated as "flag not given".
    """
    values: dict[str, object] = {}
    if file_path is not None:
        values.update(load_config_file(file_path))
    values.update(_env_overrides(os.environ if env is None else dict(env)))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[key] = val
    return RunConfig(**values)
