"""Flat key-value experiment configuration: parsing, validation, canonical form.

Config files are lines of `key = value` with `#` comments. Every
subcommand declares its full key schema; unknown keys are rejected so
typos cannot silently fall back to defaults. The canonical serialization
of the validated config (sorted keys, repr-formatted values) is embedded
in every artifact, which is what makes output bytes a pure function of
the config. Float values must be finite.

A config holds only what the results depend on. The worker count and
the output directory are command-line flags (`--threads`, `--out`) and
never config keys, so every key of a validated config is in the
canonical form. The kind lists and the box-size rule that the schemas
check are those of the library modules that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError
from .pointsets import INTERVAL_LAWS, MIN_SEEDS, POTENTIALS, box_sizes_error
from .randfields import GENERATOR_KINDS, INCREMENT_LAWS

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Key:
    name: str
    kind: str  # int | float | str | bool | int_list | float_list | str_choice
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None
    check: Callable[[object], str | None] | None = None


def _positive(v) -> str | None:
    return None if v > 0 else f"must be positive, got {v}"


def _nonnegative(v) -> str | None:
    return None if v >= 0 else f"must be nonnegative, got {v}"


def _at_least(n):
    return lambda v: None if v >= n else f"must be at least {n}, got {v}"


_COMMON = (
    Key("schema", "int", default=SCHEMA_VERSION),
    Key("seed", "int", default=0, check=_nonnegative),
)

_GENERATOR_KEYS = (
    Key("generator", "str", required=True, choices=GENERATOR_KINDS),
    Key("law", "str", default="uniform_centered", choices=INCREMENT_LAWS),
    Key("law_param", "float", default=1.0),
    Key("alpha", "float", default=None),
    Key("axis", "int", default=0, check=_nonnegative),
)

_D = Key("d", "int", required=True, check=lambda v: None if v in (1, 2, 3) else "must be 1, 2 or 3")

SCHEMAS: dict[str, tuple[Key, ...]] = {
    "green": _COMMON
    + (
        _D,
        Key("L", "int", required=True, check=_at_least(2)),
        Key("mu", "float", required=True, check=_positive),
        Key("p", "float_list", default=(2.0,)),
    ),
    "covariance": _COMMON
    + _GENERATOR_KEYS
    + (
        _D,
        Key("L", "int", required=True, check=_at_least(2)),
        Key("n_samples", "int", required=True, check=_at_least(2)),
        Key("lag_list", "int_list", default=(0, 1, 2, 4, 8)),
    ),
    "corrector-scaling": _COMMON
    + _GENERATOR_KEYS
    + (
        _D,
        Key("mu_grid", "float_list", default=None),
        Key("n", "int", required=True, check=_at_least(2)),
        Key("l_rule_coefficient", "float", default=8.0, check=_positive),
        Key("l_max", "int", default=None),
        Key("memory_budget_mb", "float", default=None),
    ),
    "energy": _COMMON
    + (
        Key("law", "str", required=True, choices=INTERVAL_LAWS),
        Key("law_a", "float", required=True),
        Key("law_b", "float", default=0.0),
        Key("potential", "str", required=True, choices=POTENTIALS),
        Key("cutoff", "float", required=True, check=_positive),
        Key("exponent", "float", default=0.0),
        Key("sizes", "int_list", required=True, check=box_sizes_error),
        Key("n_seeds", "int", default=8, check=_at_least(MIN_SEEDS)),
        Key("shift", "int", default=8),
        Key("export_points", "bool", default=False),
    ),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into an ordered raw-string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v}")
    return v


def _convert(key: Key, text: str):
    try:
        if key.kind == "int":
            return int(text)
        if key.kind == "float":
            return _finite(text)
        if key.kind == "bool":
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if key.kind == "int_list":
            return tuple(int(part.strip()) for part in text.split(",") if part.strip())
        if key.kind == "float_list":
            return tuple(_finite(part) for part in text.split(",") if part.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"{key.name}: {exc}") from None


def validate(subcommand: str, raw: dict[str, str]) -> dict:
    """Type-check and validate a raw mapping against a subcommand schema."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = {k.name: k for k in SCHEMAS[subcommand]}
    unknown = [k for k in raw if k not in schema]
    if unknown:
        raise ConfigError(
            f"unknown key(s) for {subcommand}: {', '.join(sorted(unknown))}; "
            f"known keys: {', '.join(sorted(schema))}"
        )
    values: dict = {}
    for name, key in schema.items():
        if name in raw:
            v = _convert(key, raw[name])
        elif key.required:
            raise ConfigError(f"{name}: required key missing")
        else:
            v = key.default
        if v is not None:
            if key.choices is not None and v not in key.choices:
                raise ConfigError(
                    f"{name}: must be one of {', '.join(key.choices)}; got {v!r}"
                )
            if key.check is not None:
                msg = key.check(v)
                if msg:
                    raise ConfigError(f"{name}: {msg}")
        values[name] = v
    if values["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: this build reads schema {SCHEMA_VERSION}, got {values['schema']}"
        )
    return values


def load(subcommand: str, path: str, seed: int | None = None) -> dict:
    """Read and validate the config at path; a seed given here replaces its `seed` key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    raw = parse_config_text(text)
    if seed is not None:
        raw["seed"] = str(seed)
    return validate(subcommand, raw)


def format_value(v) -> str:
    """One value as config and CSV text: true/false, comma-joined tuples, float repr."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(format_value(x) for x in v)
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def canonical_text(subcommand: str, values: dict) -> str:
    """Deterministic serialization of the result-relevant config."""
    lines = [f"subcommand = {subcommand}"]
    for name in sorted(values):
        if values[name] is None:
            continue
        lines.append(f"{name} = {format_value(values[name])}")
    return "\n".join(lines) + "\n"
