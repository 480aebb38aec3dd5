"""Ladder and number factors for the tests, expanded into Majorana monomials.

``fermap.models.FermionOperator`` terms are Majorana monomials (index 2j is
c_j, 2j + 1 is d_j).  Tests that speak in ladder operators write a product
of ``(mode, flavor)`` factors and expand it here, factor by factor in
written order, with

    a_j = (c_j + i d_j) / 2,   a^dag_j = (c_j - i d_j) / 2,   n_j = a^dag_j a_j,

and c_j, d_j themselves as flavors ``c`` and ``d``.
"""

from fermap.models import FermionOperator

RAISE, LOWER, NUMBER, MAJORANA_C, MAJORANA_D = "+", "-", "n", "c", "d"

# flavor -> (coefficient, Majorana offsets from 2j) of each monomial of one factor
_EXPANSIONS = {
    MAJORANA_C: ((1.0, (0,)),),
    MAJORANA_D: ((1.0, (1,)),),
    LOWER: ((0.5, (0,)), (0.5j, (1,))),
    RAISE: ((0.5, (0,)), (-0.5j, (1,))),
    NUMBER: ((0.25, (0, 0)), (0.25j, (0, 1)), (-0.25j, (1, 0)), (0.25, (1, 1))),
}


def expand(coeff, factors) -> tuple:
    """The (coeff, monomial) terms of ``coeff`` times the product of ``factors``."""
    terms = [(complex(coeff), ())]
    for mode, flavor in factors:
        terms = [(c * e, monomial + tuple(2 * mode + o for o in offsets))
                 for c, monomial in terms for e, offsets in _EXPANSIONS[flavor]]
    return tuple(terms)


def ladder_term(n_modes: int, coeff, factors) -> FermionOperator:
    """``coeff`` times the product of ``(mode, flavor)`` factors as one operator."""
    return FermionOperator(n_modes, expand(coeff, factors))


def ladder_operator(n_modes: int, terms) -> FermionOperator:
    """The sum of ``(coeff, factors)`` ladder terms as one operator."""
    return FermionOperator(n_modes, tuple(t for coeff, f in terms for t in expand(coeff, f)))
