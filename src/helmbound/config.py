"""Run configuration: JSON in, validated dataclasses out.

Defaults mirror the reference setup (a=1, b=1.5, alpha=beta=1, 15x15 basis,
kappa0 = 2.0116), so a bare run reproduces the reference tables.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import Method, QuadratureConfig
from .basis import BasisSpec, Parity
from .errors import HelmboundError
from .geometry import CompositeDomain, make_domain


class ConfigError(HelmboundError):
    """Invalid run configuration."""


# Fields that must be integers, and fields that may be any number; booleans
# are neither.  A dotted name is a key of a section object.
INTEGER_FIELDS = (
    "steklov_truncation", "max_iter", "basis.n_max", "basis.m_max", "quadrature.n_r",
    "quadrature.n_phi", "quadrature.n_s", "grid.nx", "grid.ny", "oracle.num_modes",
)
NUMBER_FIELDS = ("kappa0", "tol", "geometry.a", "geometry.b", "basis.alpha", "basis.beta", "oracle.h")


@dataclass
class RunConfig:
    geometry: dict = field(default_factory=lambda: {"a": 1.0, "b": 1.5})
    basis: dict = field(
        default_factory=lambda: {
            "parity": "even",
            "alpha": 1.0,
            "beta": 1.0,
            "n_max": 15,
            "m_max": 15,
        }
    )
    method: str = "dtn"
    steklov_truncation: int = 200
    quadrature: dict = field(default_factory=lambda: {"n_r": 64, "n_phi": 64, "n_s": 128})
    kappa0: float = 2.0116
    tol: float = 5e-5
    max_iter: int = 20
    grid: dict = field(default_factory=lambda: {"nx": 401, "ny": 701})
    output_dir: str = "helmbound-out"
    oracle: dict = field(default_factory=lambda: {"h": 1.0 / 64.0, "num_modes": 8, "shape": "composite"})

    def validate(self) -> "RunConfig":
        self._check_types()
        try:
            self.domain()
            self.basis_spec()
            self.method_enum()
            quad = self.quad()
        except (HelmboundError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        positives = {
            "steklov_truncation": self.steklov_truncation,
            "kappa0": self.kappa0,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "grid.nx": self.grid.get("nx", 0),
            "grid.ny": self.grid.get("ny", 0),
            "oracle.h": self.oracle.get("h", 0),
            "oracle.num_modes": self.oracle.get("num_modes", 0),
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
        if self.oracle.get("shape", "composite") not in ("composite", "bounding_rectangle"):
            raise ConfigError(f"unknown oracle shape {self.oracle.get('shape')!r}")
        return self

    def _check_types(self) -> None:
        for name in INTEGER_FIELDS + NUMBER_FIELDS:
            section, _, key = name.rpartition(".")
            holder = getattr(self, section) if section else vars(self)
            if not isinstance(holder, dict):
                raise ConfigError(f"{section} must be an object, got {holder!r}")
            if key not in holder:
                continue
            value = holder[key]
            integer = name in INTEGER_FIELDS
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
                raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")

    def domain(self) -> CompositeDomain:
        return make_domain(self.geometry["a"], self.geometry["b"])

    def basis_spec(self, parity: str | None = None, n_max: int | None = None, m_max: int | None = None) -> BasisSpec:
        b = self.basis
        return BasisSpec(
            parity=Parity(parity if parity is not None else b["parity"]),
            alpha=b.get("alpha", 1.0),
            beta=b.get("beta", 1.0),
            n_max=n_max if n_max is not None else b["n_max"],
            m_max=m_max if m_max is not None else b["m_max"],
        )

    def quad(self) -> QuadratureConfig:
        q = self.quadrature
        return QuadratureConfig(n_r=q["n_r"], n_phi=q["n_phi"], n_s=q["n_s"])

    def method_enum(self) -> Method:
        return Method(self.method)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls()
        known = set(cfg.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            current = getattr(cfg, key)
            if isinstance(current, dict) and isinstance(value, dict):
                merged = dict(current)
                merged.update(value)
                setattr(cfg, key, merged)
            else:
                setattr(cfg, key, value)
        return cfg.validate()

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


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
