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
        quad = self.quadrature
        positives = {
            "steklov_truncation": self.steklov_truncation,
            "kappa0": self.kappa0,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "grid.nx": self.grid.nx,
            "grid.ny": self.grid.ny,
            "oracle.h": self.oracle.h,
            "oracle.num_modes": self.oracle.num_modes,
            "quadrature.n_r": quad.n_r,
            "quadrature.n_phi": quad.n_phi,
            "quadrature.n_s": quad.n_s,
        }
        for name, value in positives.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
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


def _replace(default, data, where: str):
    """``default`` with the keys of the JSON object ``data`` replaced.

    A key naming a dataclass field recurses into it; any other value must
    have its field's annotated type (a bool is neither an int nor a number,
    an int is a number, an enum field takes one of its values) and, if a
    float, be finite (JSON's Infinity and NaN are not).  Unknown keys at any
    depth are errors.
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
        else:
            changes[key] = value
    try:
        return dataclasses.replace(default, **changes)
    except (HelmboundError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def mode_seeds(domain: CompositeDomain) -> dict[str, float]:
    """Iteration seeds for the four tracked labels.

    The seeds are the exact eigenvalues of the bounding rectangle of sides
    2a and a+b: label ("even", q) maps to transverse index p=1, ("odd", q)
    to p=2 (odd symmetry in x needs an even transverse index).
    """
    a, b = domain.a, domain.b
    w, hgt = 2.0 * a, a + b

    def k(p, q):
        return float(np.pi * np.sqrt(p * p / w**2 + q * q / hgt**2))

    return {"even,1": k(1, 1), "even,2": k(1, 2), "odd,1": k(2, 1), "odd,2": k(2, 2)}


MODE_LABELS = ("even,1", "even,2", "odd,1", "odd,2")


def parse_mode_label(label: str) -> tuple[str, int]:
    try:
        parity, rank = label.split(",")
        parity = parity.strip()
        rank = int(rank)
        if parity not in ("even", "odd") or rank < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad mode label {label!r}; expected e.g. 'even,1'") from None
    return parity, rank
