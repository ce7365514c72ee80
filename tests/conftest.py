"""Shared generators for the test suite.

Seeded ``random.Random`` corpora are used wherever a test promises an
exact sample count; hypothesis strategies cover the free-form algebraic
properties.
"""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from liefol import Chart, Poly, RatFunc, VectorField

# exact rational arithmetic is deterministic but not fast; a wall-clock
# deadline only adds flakiness here.  HYPOTHESIS_PROFILE=thorough draws ten
# times as many examples.
settings.register_profile("exact", deadline=None, max_examples=60)
settings.register_profile("thorough", deadline=None, max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "exact"))

XY = Chart(("x", "y"))
XYZ = Chart(("x", "y", "z"))


def random_poly(
    rng: random.Random,
    chart: Chart,
    max_degree: int = 3,
    coeff_bound: int = 9,
    allow_zero: bool = True,
) -> Poly:
    """A random integer polynomial with total degree <= max_degree."""
    n = chart.size
    exps = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=n)
        if sum(e) <= max_degree
    ]
    terms = {}
    for e in rng.sample(exps, k=rng.randint(1, min(4, len(exps)))):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[e] = c
    p = Poly(chart, terms)
    if p.is_zero() and not allow_zero:
        return Poly.constant(chart, rng.randint(1, coeff_bound))
    return p


def random_field(
    rng: random.Random,
    chart: Chart,
    max_degree: int = 3,
    coeff_bound: int = 9,
    nonzero: bool = False,
) -> VectorField:
    while True:
        coeffs = tuple(
            random_poly(rng, chart, max_degree, coeff_bound) for _ in range(chart.size)
        )
        v = VectorField.from_coefficients(chart, coeffs)
        if not (nonzero and v.is_zero()):
            return v


def random_ratfunc(rng: random.Random, chart: Chart, max_degree: int = 2) -> RatFunc:
    num = random_poly(rng, chart, max_degree)
    den = random_poly(rng, chart, max_degree, allow_zero=False)
    return RatFunc(num, den)


def partials(functions, chart: Chart):
    """The matrix M[i][k] = d(functions[i])/dx_k."""
    return [[f.partial(k) for k in range(chart.size)] for f in functions]


def assert_value_type(value, same, other) -> None:
    """The contract of the package's immutable value types: ``same``, built
    separately from equal fields, is equal with the same hash; ``other``
    and the plain tuple of the fields are not; no slot, field or memo, can
    be set or deleted; the repr names the fields and no memo slot; copy,
    deepcopy and a pickle round trip give an equal value."""
    fields = type(value)._fields
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other and not value == other
    assert value != tuple(getattr(value, name) for name in fields)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert value == same
    assert repr(value).startswith(f"{type(value).__name__}({fields[0]}=")
    assert all(f"{name}=" not in repr(value) for name in type(value).__slots__ if name[0] == "_")
    assert_round_trips(value)


def assert_round_trips(value) -> None:
    """copy, deepcopy and pickle rebuild an equal value of the same type."""
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)


# --- hypothesis strategies -------------------------------------------------

def poly_strategy(chart: Chart, max_degree: int = 3, coeff_bound: int = 9):
    n = chart.size
    exps = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=n)
        if sum(e) <= max_degree
    ]
    term = st.tuples(
        st.sampled_from(exps),
        st.integers(min_value=-coeff_bound, max_value=coeff_bound),
    )
    return st.lists(term, min_size=0, max_size=4).map(
        lambda pairs: Poly(chart, {e: c for e, c in pairs if c})
        if pairs
        else Poly.zero(chart)
    )


def field_strategy(chart: Chart, max_degree: int = 2):
    return st.tuples(
        *[poly_strategy(chart, max_degree, 5) for _ in range(chart.size)]
    ).map(lambda cs: VectorField.from_coefficients(chart, cs))


def fraction_strategy(bound: int = 20):
    return st.builds(
        Fraction,
        st.integers(min_value=-bound, max_value=bound),
        st.integers(min_value=1, max_value=bound),
    )
