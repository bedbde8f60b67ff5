"""Run configuration: JSON in, the library's own frozen objects out.

Each JSON section is the library object it configures (``geometry`` a
CompositeDomain, ``basis`` a BasisSpec, ``quadrature`` a QuadratureConfig,
``grid`` a GridSpec, ``oracle`` an OracleConfig).  Defaults mirror the
reference setup (a=1, b=1.5, alpha=beta=1, 15x15 basis, kappa0 = 2.0116), so
a bare run reproduces the reference tables.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import numbers
import typing
from dataclasses import dataclass

import numpy as np

from .assembly import DEFAULT_STEKLOV_MODES, Method, QuadratureConfig
from .basis import BasisSpec, Parity
from .errors import HelmboundError
from .geometry import CompositeDomain
from .reconstruct import GridSpec
from .solver import DEFAULT_K_TOL, DEFAULT_MAX_ITER


class ConfigError(HelmboundError):
    """Invalid run configuration."""


ORACLE_SHAPES = ("composite", "bounding_rectangle")


@dataclass(frozen=True)
class OracleConfig:
    """Finite-difference oracle: coarse step h, modes kept, domain shape.

    ``compare`` reads only h; num_modes and shape set the ``oracle`` command."""

    h: float = 1.0 / 64.0
    num_modes: int = 8
    shape: str = "composite"


@dataclass(frozen=True)
class RunConfig:
    geometry: CompositeDomain = CompositeDomain(1.0, 1.5)
    basis: BasisSpec = BasisSpec(Parity.EVEN)
    method: Method = Method.DTN
    steklov_truncation: int = DEFAULT_STEKLOV_MODES
    quadrature: QuadratureConfig = QuadratureConfig()
    kappa0: float = 2.0116
    tol: float = DEFAULT_K_TOL
    max_iter: int = DEFAULT_MAX_ITER
    grid: GridSpec = GridSpec()
    output_dir: str = "helmbound-out"
    oracle: OracleConfig = OracleConfig()

    def __post_init__(self):
        for name, value in _numbers(self):
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        quad = self.quadrature
        if self.steklov_truncation > 2 * quad.n_s:
            raise ConfigError(
                f"steklov_truncation={self.steklov_truncation} is not resolved by "
                f"n_s={quad.n_s} interface nodes per panel (need truncation <= 2 n_s)"
            )
        if self.oracle.shape not in ORACLE_SHAPES:
            raise ConfigError(f"unknown oracle shape {self.oracle.shape!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _replace(cls(), data, "config")

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


def _numbers(section, prefix: str = ""):
    """(dotted name, value) of every int or float field of a config section,
    nested sections included; a bool is not a number.  Every one must be positive."""
    for field in dataclasses.fields(section):
        value = getattr(section, field.name)
        if dataclasses.is_dataclass(value):
            yield from _numbers(value, f"{prefix}{field.name}.")
        elif isinstance(value, numbers.Real) and not isinstance(value, bool):
            yield f"{prefix}{field.name}", value


def _replace(default, data, where: str):
    """``default`` with the keys of the JSON object ``data`` replaced.

    A key naming a dataclass field recurses into it; any other value must
    have its field's annotated type (a bool is neither an int nor a number,
    an int is a number, an enum field takes one of its values) and, if a
    float, be finite (JSON's Infinity and NaN are not); every number must be
    positive.  Unknown keys at any depth are errors.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(default)})
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    hints = typing.get_type_hints(type(default))
    changes = {}
    for key, value in data.items():
        name, kind = f"{where}.{key}", hints[key]
        if dataclasses.is_dataclass(kind):
            changes[key] = _replace(getattr(default, key), value, name)
        elif issubclass(kind, enum.Enum):
            try:
                changes[key] = kind(value)
            except ValueError:
                raise ConfigError(f"{name} must be one of {[m.value for m in kind]}, got {value!r}") from None
        elif isinstance(value, bool) or not isinstance(value, numbers.Real if kind is float else kind):
            raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        elif isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        elif isinstance(value, numbers.Real) and not value > 0:
            # checked before the section's own check, whose message names no field
            root, _, field = name.partition(".")
            raise ConfigError(f"{root}: {field} must be positive, got {value}")
        else:
            changes[key] = value
    try:
        return dataclasses.replace(default, **changes)
    except (HelmboundError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The tracked modes: each label's parity and its rank within that parity.
MODE_LABELS = {
    "even,1": (Parity.EVEN, 1),
    "even,2": (Parity.EVEN, 2),
    "odd,1": (Parity.ODD, 1),
    "odd,2": (Parity.ODD, 2),
}


def mode_seeds(domain: CompositeDomain) -> dict[str, float]:
    """Iteration seeds for the tracked labels, in MODE_LABELS order.

    The seeds are the exact eigenvalues of the bounding rectangle of sides
    2a and a+b: the label of rank q maps to (p, q) with transverse index p=1
    if even, p=2 if odd (odd symmetry in x needs an even transverse index).
    """
    a, b = domain.a, domain.b
    w, hgt = 2.0 * a, a + b

    def k(p, q):
        return float(np.pi * np.sqrt(p * p / w**2 + q * q / hgt**2))

    return {label: k(1 if parity is Parity.EVEN else 2, q) for label, (parity, q) in MODE_LABELS.items()}
