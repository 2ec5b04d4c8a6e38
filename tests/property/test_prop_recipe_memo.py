"""Property-based tests: a memoized repair recipe is the one a solve gives.

``ErasureCode.repair_recipe`` solves each ``(lost, alive)`` pattern once
per code object, and ``make_code`` shares one object per spec, so every
check compares the shared instance against a fresh, memo-free one.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    CauchyReedSolomonCode,
    ErasureCode,
    EvenOddCode,
    LocalReconstructionCode,
    ReedSolomonCode,
    ReplicationCode,
    RotatedReedSolomonCode,
    RowDiagonalParityCode,
    available_codes,
    make_code,
)
from repro.errors import UnrecoverableError

#: One spec per built-in family, with a constructor for a fresh instance.
FAMILIES = {
    "rs": ("rs(4,2)", lambda: ReedSolomonCode(4, 2)),
    "crs": ("crs(5,3)", lambda: CauchyReedSolomonCode(5, 3)),
    "lrc": ("lrc(6,2,2)", lambda: LocalReconstructionCode(6, 2, 2)),
    "rotrs": ("rotrs(6,3,2)", lambda: RotatedReedSolomonCode(6, 3, r=2)),
    "evenodd": ("evenodd(5)", lambda: EvenOddCode(5)),
    "rdp": ("rdp(5)", lambda: RowDiagonalParityCode(5)),
    "rep": ("rep(3)", lambda: ReplicationCode(3)),
}

#: The shapes callers hand ``alive`` in.
SHAPES = {
    "list": list,
    "reversed": lambda xs: list(reversed(xs)),
    "set": set,
    "generator": lambda xs: (x for x in xs),
}


def outcome(code, lost, alive):
    """The recipe, or the error message of an unrecoverable pattern."""
    try:
        return code.repair_recipe(lost, alive)
    except UnrecoverableError as exc:
        return exc


@st.composite
def patterns(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    spec, fresh = FAMILIES[family]
    n = make_code(spec).n
    lost = draw(st.integers(0, n - 1))
    # Any subset, so unrecoverable sets and sets holding ``lost`` occur.
    alive = draw(st.permutations(range(n)).flatmap(
        lambda order: st.integers(0, n).map(lambda m: order[:m])
    ))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    return spec, fresh, lost, list(alive), shape


@given(patterns())
@settings(max_examples=150, deadline=None)
def test_memoized_recipe_matches_a_fresh_solve(pattern):
    spec, fresh, lost, alive, shape = pattern
    shared = make_code(spec)
    expected = outcome(fresh(), lost, sorted(alive))
    first = outcome(shared, lost, SHAPES[shape](alive))
    again = outcome(shared, lost, SHAPES[shape](alive))
    if isinstance(expected, UnrecoverableError):
        # Raised anew every time, never a stored instance.
        for got in (first, again):
            assert isinstance(got, UnrecoverableError)
            assert str(got) == str(expected)
        assert first is not again
    else:
        assert first == expected
        assert again is first


def test_every_builtin_family_is_covered():
    def concrete(cls):
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro.codes."):
                if not inspect.isabstract(sub):
                    yield sub
                yield from concrete(sub)

    covered = set()
    for family, (spec, fresh) in FAMILIES.items():
        assert family in available_codes()
        assert type(make_code(spec)) is type(fresh()), family
        covered.add(type(fresh()))
    assert set(concrete(ErasureCode)) <= covered


def test_unrecoverable_pattern_raises_on_every_call():
    code = ReedSolomonCode(6, 3)
    for _ in range(3):
        with pytest.raises(UnrecoverableError, match="unrecoverable"):
            code.repair_recipe(0, [1, 2])
