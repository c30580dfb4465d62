"""Number-theoretic helpers against sympy, which shares no code with bvlab."""

import sympy

from bvlab.characters import _factor_small
from bvlab.core_arith import euler_phi, factorize
from bvlab.discrepancy import _moebius_phi

LIMIT = 5000


def test_factor_small_matches_factorint():
    for n in range(1, LIMIT + 1):
        assert _factor_small(n) == sorted(sympy.factorint(n).items()), n


def test_moebius_phi_match_sympy():
    for n in range(1, LIMIT + 1):
        assert _moebius_phi(n) == (sympy.mobius(n), sympy.totient(n)), n


def test_factorize_matches_factorint(table_1e4):
    for n in range(1, LIMIT + 1):
        assert list(factorize(n, table_1e4).factors) == sorted(sympy.factorint(n).items()), n


def test_euler_phi_matches_totient(table_1e4):
    for n in range(1, LIMIT + 1):
        assert euler_phi(n, table_1e4) == sympy.totient(n), n
