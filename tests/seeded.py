"""Seeded inputs the tests share: the one RNG_SEED they draw from, forms of a
known class hidden behind a random basis, and the test-only builders
sum_forms and random_invertible.  Also the two helpers that hook a library
function: ``counted`` counts its calls and ``forbid`` fails any call."""

import sys
import types

from gexforms.f2linalg import BitMatrix, rank
from gexforms.quadform import (
    QuadraticForm,
    change_basis,
    direct_sum,
    standard_form,
    zero_form,
)

RNG_SEED = 271828


def sum_forms(*qs: QuadraticForm) -> QuadraticForm:
    acc = zero_form(0)
    for q in qs:
        acc = direct_sum(acc, q)
    return acc


def random_invertible(dim: int, rng) -> BitMatrix:
    while True:
        m = BitMatrix(dim, dim, tuple(rng.getrandbits(dim) for _ in range(dim)))
        if rank(m) == dim:
            return m


def hidden_form(fc, rng):
    """The standard form of the FormClass fc under a random change of basis."""
    return change_basis(standard_form(fc), random_invertible(fc.dim, rng))


def _replace(monkeypatch, owner, name, replacement):
    """Put replacement in place of owner.name for the test: on a class, the
    attribute; on a module, every binding of the function in a gexforms
    module, since the library imports functions by name."""
    original = getattr(owner, name)
    owners = [owner]
    if isinstance(owner, types.ModuleType):
        owners = [m for n, m in sys.modules.copy().items() if n.startswith("gexforms")]
    for o in owners:
        for key, value in list(vars(o).items()):
            if value is original:
                monkeypatch.setattr(o, key, replacement)


def counted(monkeypatch, owner, name):
    """Count the calls of owner.name in the library; the test reads and
    resets the returned counter's ``calls``, and its ``class_only``: the
    calls among them that passed ``vectors=False``."""
    counter = types.SimpleNamespace(calls=0, class_only=0)
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counter.calls += 1
        counter.class_only += kwargs.get("vectors") is False
        return fn(*args, **kwargs)

    _replace(monkeypatch, owner, name, wrapper)
    return counter


def forbid(monkeypatch, owner, name, message):
    """Make every call of owner.name in the library raise AssertionError(message)."""

    def wrapper(*args, **kwargs):
        raise AssertionError(message)

    _replace(monkeypatch, owner, name, wrapper)
