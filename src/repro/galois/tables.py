"""Lookup tables for GF(2^8).

The field is generated by the primitive polynomial

    x^8 + x^4 + x^3 + x^2 + 1   (0x11d)

with generator element 2, the same construction used by Jerasure /
GF-Complete (the libraries the paper's QFS prototype links against) and by
most storage-system Reed-Solomon implementations.

Tables built at import time (total < 140 KiB):

``GF_EXP[i]``  — generator**i for i in [0, 510) (doubled so that
                 ``GF_EXP[log a + log b]`` never needs a modulo).
``GF_LOG[a]``  — discrete log of a (GF_LOG[0] is a sentinel, never read).
``GF_MUL``     — full 256x256 product table; row ``GF_MUL[a]`` is the map
                 ``x -> a*x``, gathered over the small coefficient vectors
                 of the matrix algebra.  The bulk-buffer kernel in
                 :mod:`repro.galois.vector` gathers short buffers through
                 a row directly and widens rows into 16-bit pair tables
                 for long ones.
``GF_INV[a]``  — multiplicative inverse (GF_INV[0] is a sentinel).
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial for GF(2^8) (x^8+x^4+x^3+x^2+1).
PRIMITIVE_POLY = 0x11D

#: Number of elements in the field.
FIELD_SIZE = 256

#: Multiplicative generator used to build the exp/log tables.
GENERATOR = 2


def _build_exp_log() -> "tuple[np.ndarray, np.ndarray]":
    exp = np.zeros(2 * (FIELD_SIZE - 1), dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for i in range(FIELD_SIZE - 1):
        exp[i] = value
        log[value] = i
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate the cycle so exp[log a + log b] works without a modulo.
    exp[FIELD_SIZE - 1 :] = exp[: FIELD_SIZE - 1]
    return exp, log


def _build_mul(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    mul = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    nz = np.arange(1, FIELD_SIZE)
    for a in range(1, FIELD_SIZE):
        mul[a, nz] = exp[log[a] + log[nz]]
    return mul


def _build_inv(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    inv = np.zeros(FIELD_SIZE, dtype=np.uint8)
    for a in range(1, FIELD_SIZE):
        inv[a] = exp[(FIELD_SIZE - 1) - log[a]]
    return inv


GF_EXP, GF_LOG = _build_exp_log()
GF_MUL = _build_mul(GF_EXP, GF_LOG)
GF_INV = _build_inv(GF_EXP, GF_LOG)

# The tables are module-level shared state; make accidental writes loud.
GF_EXP.setflags(write=False)
GF_LOG.setflags(write=False)
GF_MUL.setflags(write=False)
GF_INV.setflags(write=False)
