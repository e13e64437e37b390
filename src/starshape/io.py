"""Distribution documents and shipped output schemas.

A distribution is described by a JSON object with a ``gauge`` and a
``profile`` section (see ``schemas/distribution.schema.json``) plus an
optional ``c0`` holding a previously computed normalizing constant.  The
stored constant is never trusted for computation — the verify command
checks it against the freshly computed value, which is how a tampered
fixture gets caught.  Unknown fields anywhere are an error, and so is a
number that is not finite (Python's ``json`` reads ``NaN`` and
``Infinity``), a string or a boolean in place of a number, and a ``dim``
that is not an integer >= 1.  Each class names its fields in ``params``;
the readers here check the fields and their numbers, the constructors the
values' domains.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from sys import float_info

from .errors import ConfigError
from .gauge import (
    EllipticalGauge,
    Gauge,
    L1NormGauge,
    PolytopeGauge,
    SupNormGauge,
    TabulatedRadialGauge,
)
from .radial import (
    ExponentialProfile,
    GaussianProfile,
    HeavyTailProfile,
    KotzProfile,
    RadialProfile,
)

_GAUGES = {cls.variant: cls for cls in (
    EllipticalGauge, SupNormGauge, L1NormGauge, PolytopeGauge, TabulatedRadialGauge)}
_PROFILES = {cls.family: cls for cls in (
    GaussianProfile, ExponentialProfile, KotzProfile, HeavyTailProfile)}


def _fields(obj, where: str, required, optional=()) -> dict:
    """``obj`` if it is a JSON object with every required field and no other
    than the optional ones."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown field '{sorted(unknown)[0]}'")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing field '{sorted(missing)[0]}'")
    return obj


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number: bool is an int subclass,
    and the bound rejects NaN and ints beyond the double range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= float_info.max)


def _number(value, where: str) -> float:
    if not _finite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> list:
    """A JSON array, possibly nested, with every number checked by _number."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected an array, got {value!r}")
    return [_numbers(v, where) if isinstance(v, list) else _number(v, where) for v in value]


def _construct(cls, kwargs: dict, where: str):
    """``cls(**kwargs)``, its domain errors prefixed with ``where``."""
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def gauge_from_dict(obj: dict) -> Gauge:
    """Rebuild a gauge from its JSON descriptor, rejecting unknown fields."""
    obj = _fields(obj, "gauge", ("dim", "variant"), ("params",))
    dim = obj["dim"]
    if not (_finite(dim) and dim >= 1 and dim % 1 == 0):  # the schema's integer: 2.0 counts
        raise ConfigError(f"gauge.dim: expected an integer >= 1, got {dim!r}")
    dim = int(dim)
    cls = _GAUGES.get(obj["variant"]) if isinstance(obj["variant"], str) else None
    if cls is None:
        raise ConfigError(f"gauge.variant: unknown variant '{obj['variant']}'")
    params = _fields(obj.get("params", {}), "gauge.params", cls.params)
    kwargs = {k: _numbers(params[k], f"gauge.params.{k}") for k in cls.params}
    g = _construct(cls, kwargs if cls.params else {"dim": dim}, "gauge.params")
    if g.dim != dim:
        raise ConfigError(f"gauge.dim: declared {dim} but params imply {g.dim}")
    return g


def profile_from_dict(obj: dict) -> RadialProfile:
    """Rebuild a profile from its JSON form, rejecting unknown fields."""
    obj = _fields(obj, "profile", ("family",), ("params",))
    cls = _PROFILES.get(obj["family"]) if isinstance(obj["family"], str) else None
    if cls is None:
        raise ConfigError(f"profile.family: unknown family '{obj['family']}'")
    params = _fields(obj.get("params", {}), "profile.params", cls.params)
    kwargs = {k: _number(params[k], f"profile.params.{k}") for k in cls.params}
    return _construct(cls, kwargs, "profile.params")


def distribution_from_dict(obj: dict) -> tuple[Gauge, RadialProfile, float | None]:
    """Parse a distribution document into (gauge, profile, stored_c0)."""
    obj = _fields(obj, "distribution", ("gauge", "profile"), ("c0",))
    gauge = gauge_from_dict(obj["gauge"])
    profile = profile_from_dict(obj["profile"])
    c0 = obj.get("c0")
    if c0 is not None:
        c0 = _number(c0, "distribution.c0")
        if c0 <= 0:
            raise ConfigError("distribution.c0: must be a positive number")
    return gauge, profile, c0


def load_distribution(path: str | Path) -> tuple[Gauge, RadialProfile, float | None]:
    """Read and parse a distribution JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"'{path}' is not valid JSON: {exc}") from exc
    return distribution_from_dict(obj)


def load_schema(name: str) -> dict:
    """Load one of the shipped output schemas by file name."""
    text = resources.files("starshape.schemas").joinpath(name).read_text()
    return json.loads(text)
