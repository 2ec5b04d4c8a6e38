"""GF(2^8) arithmetic: scalar field operations and vectorized numpy kernels.

This package is the lowest layer of the stack.  Everything above — the
linear algebra, the erasure codes, the repair executor — reduces to the
kernels here:

* :mod:`repro.galois.tables` builds the exp/log and full multiplication
  tables for GF(2^8) with the standard polynomial ``0x11d`` (the one used by
  Jerasure and most storage systems).
* :mod:`repro.galois.field` wraps them in a scalar :class:`GF256` field
  object with add/sub/mul/div/pow/inverse.
* :mod:`repro.galois.vector` provides the bulk data-path operations used on
  chunk buffers: ``scale`` (multiply a buffer by a field constant),
  ``xor_into`` (accumulate), and ``addmul`` (fused ``dst ^= a * src``) —
  exactly the two primitives PPR distributes across servers (§4.1) — all
  over one gather (through 16-bit per-coefficient pair tables,
  or a ``GF_MUL`` row for short buffers), and ``combine``, the single
  block-parallel row-combine loop that encode, decode and every
  partial-result computation run on.
* :mod:`repro.galois.polynomial` implements polynomials over GF(2^8),
  used for Vandermonde/BCH-style reasoning and tested as an independent
  check on the field axioms.
"""

from repro.galois.field import GF256, gf256
from repro.galois.tables import GF_EXP, GF_LOG, GF_MUL, GF_INV, FIELD_SIZE
from repro.galois.vector import addmul, combine, scale, xor_into
from repro.galois.polynomial import GFPolynomial

__all__ = [
    "GF256",
    "gf256",
    "GF_EXP",
    "GF_LOG",
    "GF_MUL",
    "GF_INV",
    "FIELD_SIZE",
    "addmul",
    "combine",
    "scale",
    "xor_into",
    "GFPolynomial",
]
