"""Seeded inputs the tests share: the one RNG_SEED they draw from, and forms
of a known class hidden behind a random basis."""

from gexforms.quadform import change_basis, random_invertible, standard_form

RNG_SEED = 271828


def hidden_form(fc, rng):
    """The standard form of the FormClass fc under a random change of basis."""
    return change_basis(standard_form(fc), random_invertible(fc.dim, rng))
