"""Name-based construction of erasure codes, e.g. from CLI/config strings.

Understood formats (case-insensitive):

* ``"rs(6,3)"`` / ``"rs-6-3"`` — Reed-Solomon
* ``"crs(6,3)"``              — Cauchy Reed-Solomon
* ``"lrc(12,2,2)"``           — Local Reconstruction Code
* ``"rotrs(12,4)"`` / ``"rotrs(12,4,4)"`` — Rotated RS (optional r)
* ``"rep(3)"``                — replication
* ``"evenodd(5)"``            — EVENODD array code (p prime)
* ``"rdp(5)"``                — Row-Diagonal Parity (p prime)
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.codes.base import ErasureCode
from repro.codes.cauchy import CauchyReedSolomonCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.evenodd import EvenOddCode
from repro.codes.rdp import RowDiagonalParityCode
from repro.codes.replication import ReplicationCode
from repro.codes.rotated import RotatedReedSolomonCode
from repro.codes.rs import ReedSolomonCode

_FACTORIES: "Dict[str, Callable[..., ErasureCode]]" = {}


def register_code(name: str, factory: "Callable[..., ErasureCode]") -> None:
    """Register a code family under a (lower-case) name."""
    _FACTORIES[name.lower()] = factory
    make_code.cache_clear()


def available_codes() -> "List[str]":
    """Registered family names."""
    return sorted(_FACTORIES)


_SPEC_RE = re.compile(
    r"^\s*(?P<family>[a-zA-Z_]+)\s*[\(\-]\s*(?P<args>[\d,\s\-]*)\s*\)?\s*$"
)


@functools.lru_cache(maxsize=None)
def make_code(spec: str) -> ErasureCode:
    """The code for a spec string like ``"rs(6,3)"``.

    One shared instance per spec, so its repair recipes are solved once:
    codes are immutable after construction.
    """
    match = _SPEC_RE.match(spec)
    if not match:
        raise ConfigurationError(f"unparseable code spec: {spec!r}")
    family = match.group("family").lower()
    factory = _FACTORIES.get(family)
    if factory is None:
        raise ConfigurationError(
            f"unknown code family {family!r}; known: {available_codes()}"
        )
    args_text = match.group("args").replace("-", ",")
    args = [int(tok) for tok in args_text.split(",") if tok.strip()]
    return factory(*args)


register_code("rs", ReedSolomonCode)
register_code("evenodd", EvenOddCode)
register_code("rdp", RowDiagonalParityCode)
register_code("crs", CauchyReedSolomonCode)
register_code("lrc", LocalReconstructionCode)
register_code("rotrs", RotatedReedSolomonCode)
register_code("rep", ReplicationCode)
