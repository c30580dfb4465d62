import cmath
import math
import random

import numpy as np
import pytest

from bvlab import ParameterError
from bvlab.characters import (
    CharacterSet,
    _exponent,
    enumerate_characters,
    induce,
    induced_set,
    induced_values,
    primitive_characters,
    trivial_set,
    unit_group,
)
from oracles import (
    full_primitive_set,
    is_principal,
    phi_naive,
    primitivize,
    trial_division,
    value,
)


def moebius_naive(n):
    fs = trial_division(n)
    if any(e > 1 for _, e in fs):
        return 0
    return (-1) ** len(fs)


def test_modulus_one_is_identically_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert all(value(chi, n) == 1 for n in range(1, 50))
    assert chi.conductor == 1 and chi.is_primitive


def test_mod5_order_four_character():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    chi = chars[1]
    assert value(chi, 2) == pytest.approx(1j, abs=1e-12)
    assert value(chi, 3) == pytest.approx(-1j, abs=1e-12)


def test_mod8_characters_all_real():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    for chi in chars:
        for n in range(16):
            assert abs(value(chi, n).imag) == 0.0


def test_enumeration_count_and_principal_first(table_1e4):
    for q in range(1, 60):
        chars = enumerate_characters(q, table_1e4)
        assert len(chars) == phi_naive(q)
        assert is_principal(chars[0])
        assert [c.label for c in chars] == list(range(len(chars)))


def test_rejects_modulus_zero():
    with pytest.raises(ParameterError):
        enumerate_characters(0)


def test_char_value_examples():
    principal3 = enumerate_characters(3)[0]
    assert value(principal3, 6) == 0
    nonprincipal3 = enumerate_characters(3)[1]
    assert value(nonprincipal3, 2) == pytest.approx(-1, abs=1e-12)
    for chi in enumerate_characters(12):
        assert value(chi, 1) == pytest.approx(1, abs=0)


def test_values_have_unit_modulus():
    for q in (7, 9, 16, 24, 45):
        for chi in enumerate_characters(q):
            for n in range(2 * q):
                v = abs(value(chi, n))
                assert v == 0 or abs(v - 1) < 1e-12


def test_orthogonality():
    for q in range(1, 51):
        chars = enumerate_characters(q)
        phi = len(chars)
        units = [a for a in range(max(q, 1)) if math.gcd(a, q) == 1] or [0]
        for a in units:
            for b in units:
                s = sum(value(chi, a) * value(chi, b).conjugate() for chi in chars)
                expect = phi if (a - b) % q == 0 else 0
                assert abs(s - expect) <= 1e-9


def test_multiplicativity_random():
    rng = random.Random(5)
    for q in range(1, 51):
        for chi in enumerate_characters(q):
            for _ in range(5):
                m = rng.randrange(1, 300)
                n = rng.randrange(1, 300)
                assert abs(value(chi, m * n) - value(chi, m) * value(chi, n)) <= 1e-12


def test_conductor_examples():
    principal12 = enumerate_characters(12)[0]
    assert (principal12.conductor, principal12.is_primitive) == (1, False)
    nonprincipal6 = enumerate_characters(6)[1]
    assert (nonprincipal6.conductor, nonprincipal6.is_primitive) == (3, False)
    nonprincipal3 = enumerate_characters(3)[1]
    assert (nonprincipal3.conductor, nonprincipal3.is_primitive) == (3, True)


def test_conductor_is_smallest_inducing_period():
    # Brute force: the conductor is the least d | q such that chi is constant
    # on residues that agree mod d (among units mod q).
    for q in (3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 36, 40):
        for chi in enumerate_characters(q):
            best = None
            for d in range(1, q + 1):
                if q % d != 0:
                    continue
                ok = True
                for m in range(q):
                    for n in range(q):
                        if math.gcd(m, q) == 1 and math.gcd(n, q) == 1 and (m - n) % d == 0:
                            if abs(value(chi, m) - value(chi, n)) > 1e-9:
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    best = d
                    break
            assert chi.conductor == best, (q, chi.exponents)


def test_induce_examples():
    triv = enumerate_characters(1)[0]
    chi4 = induce(triv, 4)
    assert is_principal(chi4) and chi4.modulus == 4
    chi3 = enumerate_characters(3)[1]
    chi6 = induce(chi3, 6)
    assert chi6.modulus == 6 and not is_principal(chi6)
    assert len(enumerate_characters(6)) == 2
    chi9 = induce(chi3, 9)
    for n in range(1, 19):
        if n % 3 == 0:
            assert value(chi9, n) == 0
        else:
            assert abs(value(chi9, n) - value(chi3, n)) <= 1e-12


def test_induce_requires_divisibility():
    chi3 = enumerate_characters(3)[1]
    with pytest.raises(ParameterError):
        induce(chi3, 5)


def test_induction_consistency_random():
    rng = random.Random(9)
    for q in (6, 8, 12, 15, 20, 36, 48):
        for psi in primitive_characters(3) + primitive_characters(4):
            if q % psi.modulus != 0:
                continue
            chi = induce(psi, q)
            for _ in range(20):
                n = rng.randrange(1, 500)
                if math.gcd(n, q) == 1:
                    assert abs(value(chi, n) - value(psi, n)) <= 1e-12


def test_conductor_idempotence():
    for q in (3, 4, 5, 8, 9, 12, 15, 16, 24, 40, 45):
        for chi in enumerate_characters(q):
            psi = primitivize(chi)
            assert psi.modulus == chi.conductor and psi.is_primitive
            back = induce(psi, q)
            assert back.exponents == chi.exponents
            for n in range(q):
                assert value(chi, n) == value(back, n)


def test_primitive_count_formula():
    for q in range(1, 101):
        prims = primitive_characters(q)
        expected = sum(
            moebius_naive(q // d) * phi_naive(d) for d in range(1, q + 1) if q % d == 0
        )
        assert len(prims) == expected, q


def test_induced_set_examples():
    xi = trivial_set()
    got = induced_set(xi, 7)
    assert len(got) == 1 and is_principal(got[0]) and got[0].modulus == 7

    chi3 = enumerate_characters(3)[1]
    xi3 = CharacterSet(members=(chi3,))
    assert induced_set(xi3, 5) == []
    got6 = induced_set(xi3, 6)
    assert len(got6) == 1 and got6[0].modulus == 6


def test_character_set_validation():
    with pytest.raises(ParameterError):
        CharacterSet(members=(enumerate_characters(6)[1],))  # not primitive
    chi3 = enumerate_characters(3)[1]
    with pytest.raises(ParameterError):
        CharacterSet(members=(chi3, chi3))


def test_full_primitive_set_reconstructs_group():
    for q in (1, 3, 8, 12, 15):
        xi = full_primitive_set(q)
        got = induced_set(xi, q)
        assert len(got) == phi_naive(q)
        labels = sorted(chi.label for chi in got)
        assert labels == list(range(phi_naive(q)))


def test_exponent_is_the_lcm_of_the_factor_orders():
    for q in range(1, 1025):
        assert _exponent(q) == math.lcm(*(f.order for f in unit_group(q).factors)), q


def test_induced_values_are_the_bytes_of_induce():
    # every primitive psi mod r <= 30, read mod every q <= 400 that r divides
    orders = set()
    for r in range(1, 31):
        prims = primitive_characters(r)
        if not prims:
            continue
        for psi in prims:
            g = psi.group
            orders.add(math.lcm(*(f.order // math.gcd(f.order, a)
                                  for a, f in zip(psi.exponents, g.factors))))
        xi = CharacterSet(members=tuple(prims))
        for q in range(r, 401, r):
            got = induced_values(xi, q)
            want = [induce(psi, q).residue_values() for psi in prims]
            assert all(v.dtype == np.complex128 and v.shape == (q,) for v in got), (r, q)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (r, q)
    # orders whose roots are not all snapped to 1, i, -1, -i
    assert {6, 10, 12} <= orders


def test_induced_values_follow_induced_set():
    chi3 = enumerate_characters(3)[1]
    xi = CharacterSet(members=(enumerate_characters(1)[0], chi3, enumerate_characters(4)[1]))
    for q in (1, 5, 6, 12, 20):
        assert len(induced_values(xi, q)) == len(induced_set(xi, q)), q
    with pytest.raises(ParameterError):
        induced_values(xi, 0)


def test_residue_values_match_scalar():
    # value_exact reads chi(r) = exp(2 pi i t / L) off the unit group's
    # discrete logs, not off the turn and root tables residue_values reads
    for q in (1, 2, 5, 8, 12, 45):
        for chi in enumerate_characters(q):
            vals = chi.residue_values()
            assert vals.shape == (q,)
            for r in range(q):
                exact = chi.value_exact(r)
                if exact is None:
                    assert math.gcd(r, q) != 1 and vals[r] == 0
                    continue
                t, L = exact
                if 4 * t % L == 0:
                    assert vals[r] == (1, 1j, -1, -1j)[4 * t // L]
                else:
                    assert abs(vals[r] - cmath.exp(2j * math.pi * t / L)) <= 1e-15


def test_serialization_labels():
    chi = enumerate_characters(5)[3]
    assert chi.serialize() == "chi:q=5,label=3"
