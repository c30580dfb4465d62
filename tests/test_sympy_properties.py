"""Number-theoretic helpers against sympy, which shares no code with bvlab."""

import sympy

from bvlab.characters import UnitGroup, _factor_small
from bvlab.core_arith import euler_phi, factorize
from bvlab.discrepancy import _moebius_phi
from bvlab.multfun import liouville, to_arith

LIMIT = 5000


def test_factor_small_matches_factorint():
    for n in range(1, LIMIT + 1):
        assert _factor_small(n) == sorted(sympy.factorint(n).items()), n


def test_moebius_phi_match_sympy():
    for n in range(1, LIMIT + 1):
        assert _moebius_phi(n) == (sympy.mobius(n), sympy.totient(n)), n


def test_factorize_matches_factorint(table_1e4):
    for n in range(1, LIMIT + 1):
        assert list(factorize(n, table_1e4)) == sorted(sympy.factorint(n).items()), n


def test_euler_phi_matches_totient(table_1e4):
    for n in range(1, LIMIT + 1):
        assert euler_phi(n, table_1e4) == sympy.totient(n), n


def test_liouville_matches_primeomega(table_1e4):
    lam = to_arith(liouville(LIMIT), LIMIT, table_1e4).values
    for n in range(1, LIMIT + 1):
        assert lam[n] == (-1) ** int(sympy.primeomega(n)), n


def test_odd_prime_power_unit_groups_match_n_order():
    for p in sympy.primerange(3, LIMIT + 1):
        pe = p
        while pe <= LIMIT:
            (f,) = UnitGroup(pe).factors
            phi = sympy.totient(pe)
            assert f.order == phi and sympy.n_order(f.generator, pe) == phi, pe
            for x in range(1, pe):
                if x % p:
                    assert pow(f.generator, int(f.dlog[x]), pe) == x, (pe, x)
            pe *= p


def test_two_power_unit_groups_match_n_order():
    (f,) = UnitGroup(4).factors
    assert f.order == 2 and sympy.n_order(f.generator, 4) == 2
    for e in range(3, 13):
        pe = 2**e
        sign, five = UnitGroup(pe).factors
        assert (sign.order, five.order) == (2, 2 ** (e - 2)), pe
        assert sympy.n_order(sign.generator, pe) == 2
        assert sympy.n_order(five.generator, pe) == 2 ** (e - 2)
