"""Distribution documents and shipped output schemas.

A distribution is described by a JSON object with a ``gauge`` and a
``profile`` section (see ``schemas/distribution.schema.json``) plus an
optional ``c0`` holding a previously computed normalizing constant.  The
stored constant is never trusted for computation — the verify command
checks it against the freshly computed value, which is how a tampered
fixture gets caught.  Unknown fields anywhere are an error.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .gauge import Gauge, gauge_from_dict
from .radial import RadialProfile, profile_from_dict


def distribution_from_dict(obj: dict) -> tuple[Gauge, RadialProfile, float | None]:
    """Parse a distribution document into (gauge, profile, stored_c0)."""
    if not isinstance(obj, dict):
        raise ConfigError("distribution: expected a JSON object")
    unknown = set(obj) - {"gauge", "profile", "c0"}
    if unknown:
        raise ConfigError(f"distribution: unknown field '{sorted(unknown)[0]}'")
    for field in ("gauge", "profile"):
        if field not in obj:
            raise ConfigError(f"distribution: missing field '{field}'")
    gauge = gauge_from_dict(obj["gauge"])
    profile = profile_from_dict(obj["profile"])
    c0 = obj.get("c0")
    if c0 is not None:
        if not isinstance(c0, (int, float)) or c0 <= 0:
            raise ConfigError("distribution.c0: must be a positive number")
        c0 = float(c0)
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


def distribution_to_dict(gauge: Gauge, profile: RadialProfile, c0: float | None = None) -> dict:
    out = {"gauge": gauge.to_dict(), "profile": profile.to_dict()}
    if c0 is not None:
        out["c0"] = float(c0)
    return out


def load_schema(name: str) -> dict:
    """Load one of the shipped output schemas by file name."""
    text = resources.files("starshape.schemas").joinpath(name).read_text()
    return json.loads(text)
