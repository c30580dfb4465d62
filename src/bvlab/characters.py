"""Dirichlet characters mod q via the structure of the unit group.

Representation: (Z/qZ)* is split CRT-style into cyclic factors, one per odd
prime-power component p^e (generated by the least primitive root, lifted to
p^e), plus the pair (-1, 5) for a component 2^e with e >= 3 (2^1 contributes
nothing, 2^2 is generated by -1). A character is the tuple of its exponents
on those generators, so values are exact roots of unity: chi(n) =
exp(2*pi*i*t/L) with t an integer accumulated from per-factor discrete logs
and L the group exponent. Complex doubles appear only at evaluation, read
from a table of L-th roots built once per exponent L (_roots).

Induced characters: the character mod q induced by a primitive psi mod r
(r | q) is psi(n mod r) on the units mod q and 0 elsewhere. (Z/rZ)* is a
quotient of (Z/qZ)*, so the exponent L_r divides L_q, and at a unit n the
turn index of the induced character is t_psi(n mod r) * (L_q / L_r) mod
L_q, with t_psi psi's cached turn table mod r. induced_values reads that
index from _roots(L_q), taking L_q from the factorization of q, so it
builds no unit group mod q. The induced character that induce() builds
from the unit group mod q has the same root of unity at n, hence the same
index below L_q, and its residue_values read the same table: the two
vectors are the same bytes.

Canonical order of the phi(q) characters mod q is lexicographic on exponent
tuples, so the principal character is first and labels are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_arith import _factor_small
from .errors import ParameterError


def _least_primitive_root(p: int, e: int) -> int:
    """Least primitive root mod p, adjusted to generate mod p^e (p odd)."""
    qs = [r for r, _ in _factor_small(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in qs):
        g += 1
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _exponent(q: int) -> int:
    """The exponent of (Z/qZ)*, the lcm of its cyclic factors' orders, from q's factorization."""
    return math.lcm(*(2 ** max(e - 2, 1) if p == 2 else (p - 1) * p ** (e - 1)
                      for p, e in _factor_small(q) if p**e != 2))


def _unit_mask(q: int) -> np.ndarray:
    """True at the residues 0..q-1 coprime to q (at 0 too when q = 1)."""
    unit = np.ones(q, dtype=bool)
    for p, _e in _factor_small(q):
        unit[::p] = False
    return unit


@lru_cache(maxsize=None)
def _roots(L: int) -> np.ndarray:
    """exp(2*pi*i*k/L) for k = 0..L-1: the values of every character whose group has exponent L."""
    ks = np.arange(L)
    roots = np.exp(2j * np.pi * ks / L)
    # Snap quarter turns to exact 1, i, -1, -i so that real characters
    # evaluate exactly real (np.exp leaves ~1e-16 residue at pi).
    quarter, rem = np.divmod(4 * ks, L)
    snap = rem == 0
    roots[snap] = np.array([1, 1j, -1, -1j])[quarter[snap] % 4]
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor of (Z/qZ)*: generator and its discrete-log table."""

    prime: int
    prime_power: int
    generator: int  # residue mod prime_power
    order: int
    dlog: np.ndarray  # indexed by residue mod prime_power; -1 for non-units


class UnitGroup:
    """Factored unit group mod q with its exponent and generator lifts."""

    def __init__(self, q: int):
        if q < 1:
            raise ParameterError(f"modulus must be >= 1, got {q}")
        self.q = q
        factors: list[CyclicFactor] = []
        for p, e in _factor_small(q):
            pe = p**e
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    dlog = np.full(4, -1, dtype=np.int64)
                    dlog[1] = 0
                    dlog[3] = 1
                    factors.append(CyclicFactor(2, 4, 3, 2, dlog))
                else:
                    half = 2 ** (e - 2)
                    dsign = np.full(pe, -1, dtype=np.int64)
                    dfive = np.full(pe, -1, dtype=np.int64)
                    for s in (0, 1):
                        x = (pe - 1) ** s % pe
                        for j in range(half):
                            dsign[x] = s
                            dfive[x] = j
                            x = x * 5 % pe
                    factors.append(CyclicFactor(2, pe, pe - 1, 2, dsign))
                    factors.append(CyclicFactor(2, pe, 5, half, dfive))
            else:
                g = _least_primitive_root(p, e)
                order = (p - 1) * p ** (e - 1)
                dlog = np.full(pe, -1, dtype=np.int64)
                x = 1
                for j in range(order):
                    dlog[x] = j
                    x = x * g % pe
                factors.append(CyclicFactor(p, pe, g, order, dlog))
        self.factors = tuple(factors)
        self.exponent = _exponent(q)
        # CRT lift of each factor's generator: congruent to the generator in
        # its own component and to 1 in every other component.
        lifts = []
        for f in factors:
            rest = q // f.prime_power
            lift = f.generator
            if rest > 1:
                inv = pow(f.prime_power, -1, rest)
                lift = (f.generator + f.prime_power * ((1 - f.generator) * inv % rest)) % q
            lifts.append(lift)
        self.generator_lifts = tuple(lifts)

    def dlogs(self, n: int) -> tuple[int, ...] | None:
        """Per-factor discrete logs of n, or None when gcd(n, q) > 1."""
        if math.gcd(n, self.q) != 1:
            return None
        out = []
        for f in self.factors:
            j = int(f.dlog[n % f.prime_power])
            out.append(j)
        return tuple(out)


@lru_cache(maxsize=None)
def unit_group(q: int) -> UnitGroup:
    return UnitGroup(q)


def _conductor_from(group: UnitGroup, exponents: tuple[int, ...]) -> int:
    cond = 1
    i = 0
    factors = group.factors
    while i < len(factors):
        f = factors[i]
        if f.prime == 2 and f.prime_power >= 8:
            s, a = exponents[i], exponents[i + 1]
            half = factors[i + 1].order
            if a != 0:
                m = half // math.gcd(half, a)  # order of the 5-part
                cond *= 4 * m
            elif s != 0:
                cond *= 4
            i += 2
            continue
        a = exponents[i]
        if a != 0:
            d = f.order
            m = d // math.gcd(d, a)
            v = 0
            while m % f.prime == 0:
                m //= f.prime
                v += 1
            cond *= f.prime ** (v + 1)
        i += 1
    return cond


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod `modulus`, stored as exponents on unit-group generators.

    `label` is the index in the canonical (lexicographic) enumeration of the
    character group, used for serialization as "chi:q=<q>,label=<k>".
    """

    modulus: int
    exponents: tuple[int, ...]
    conductor: int
    label: int

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def value_exact(self, n: int) -> tuple[int, int] | None:
        """chi(n) as (t, L) with chi(n) = exp(2*pi*i*t/L); None if chi(n) = 0."""
        g = self.group
        js = g.dlogs(n % self.modulus if self.modulus > 1 else 0)
        if js is None:
            return None
        L = g.exponent
        t = 0
        for a, j, f in zip(self.exponents, js, g.factors):
            t += a * j * (L // f.order)
        return (t % L, L)

    def residue_values(self) -> np.ndarray:
        """chi on residues 0..q-1 as a complex vector (0 on non-units)."""
        t = _turns(self.modulus, self.exponents)
        return np.where(t >= 0, _roots(self.group.exponent)[t], 0j)

    def serialize(self) -> str:
        return f"chi:q={self.modulus},label={self.label}"


def _label_of(group: UnitGroup, exponents: tuple[int, ...]) -> int:
    label = 0
    for a, f in zip(exponents, group.factors):
        label = label * f.order + a
    return label


def _char_from_exponents(q: int, exponents: tuple[int, ...]) -> DirichletCharacter:
    g = unit_group(q)
    if len(exponents) != len(g.factors):
        raise ParameterError(f"expected {len(g.factors)} exponents for modulus {q}")
    exps = tuple(a % f.order for a, f in zip(exponents, g.factors))
    return DirichletCharacter(
        modulus=q,
        exponents=exps,
        conductor=_conductor_from(g, exps),
        label=_label_of(g, exps),
    )


@lru_cache(maxsize=4096)
def _turns(q: int, exponents: tuple[int, ...]) -> np.ndarray:
    """chi's turns on 0..q-1: chi(n) = exp(2*pi*i*t[n]/L), L the exponent mod q; -1 off the units."""
    g = unit_group(q)
    L = g.exponent
    res = np.arange(q)
    t = np.zeros(q, dtype=np.int64)
    for a, f in zip(exponents, g.factors):
        t += a * np.maximum(f.dlog[res % f.prime_power], 0) * (L // f.order)
    t = np.where(_unit_mask(q), t % L, -1)
    t.setflags(write=False)
    return t


def enumerate_characters(q: int, table=None) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in canonical order (principal first)."""
    if q < 1:
        raise ParameterError(f"modulus must be >= 1, got {q}")
    if table is not None and q > table.limit:
        raise ParameterError(f"q={q} exceeds table limit {table.limit}")
    orders = (range(f.order) for f in unit_group(q).factors)
    return [_char_from_exponents(q, exps) for exps in itertools.product(*orders)]


def _exponent_from_value(t: int, L: int, order: int) -> int:
    # chi(g) = exp(2*pi*i*t/L) must be an (order)-th root of unity.
    num = t * order
    if num % L != 0:
        raise ParameterError("value is not a root of unity of the expected order")
    return (num // L) % order


def induce(psi: DirichletCharacter, q: int) -> DirichletCharacter:
    """The character mod q induced by the primitive character psi."""
    if not psi.is_primitive:
        raise ParameterError("induce() requires a primitive character")
    r = psi.modulus
    if q % r != 0:
        raise ParameterError(f"conductor {r} does not divide target modulus {q}")
    g = unit_group(q)
    exps = []
    for f, lift in zip(g.factors, g.generator_lifts):
        tl = psi.value_exact(lift)
        if tl is None:  # lift is coprime to q, hence to r
            raise ParameterError("generator lift not coprime to conductor")
        exps.append(_exponent_from_value(tl[0], tl[1], f.order))
    chi = _char_from_exponents(q, tuple(exps))
    assert chi.conductor == r, "induced character must keep the conductor"
    return chi


@dataclass(frozen=True)
class CharacterSet:
    """A finite set of primitive characters (the correction set Xi)."""

    members: tuple[DirichletCharacter, ...]

    def __post_init__(self):
        seen = set()
        for psi in self.members:
            if not psi.is_primitive:
                raise ParameterError(
                    f"{psi.serialize()} has conductor {psi.conductor}: not primitive"
                )
            key = (psi.conductor, psi.label)
            if key in seen:
                raise ParameterError(f"duplicate member {psi.serialize()}")
            seen.add(key)

    def __iter__(self):
        return iter(self.members)


def trivial_set() -> CharacterSet:
    """Xi = {1}: just the trivial character mod 1 (primitive by convention)."""
    return CharacterSet(members=tuple(enumerate_characters(1)))


def induced_set(xi: CharacterSet, q: int) -> list[DirichletCharacter]:
    """Xi_q: the characters mod q induced by members whose conductor divides q."""
    if q < 1:
        raise ParameterError(f"modulus must be >= 1, got {q}")
    return [induce(psi, q) for psi in xi if q % psi.modulus == 0]


def induced_values(xi: CharacterSet, q: int) -> list[np.ndarray]:
    """The residue vectors of Xi_q, in the order of induced_set(xi, q), with no unit group mod q.

    The character mod q induced by psi mod r is psi(n mod r) on the units
    mod q and 0 elsewhere; its turn index mod L_q is psi's mod L_r, scaled
    by L_q / L_r. See the module docstring.
    """
    if q < 1:
        raise ParameterError(f"modulus must be >= 1, got {q}")
    L = _exponent(q)
    unit = _unit_mask(q)
    res = np.arange(q)
    out = []
    for psi in xi:
        r = psi.modulus
        if q % r == 0:
            t = _turns(r, psi.exponents)[res % r] * (L // _exponent(r)) % L
            out.append(np.where(unit, _roots(L)[t], 0j))
    return out


def primitive_characters(q: int) -> list[DirichletCharacter]:
    """The primitive characters mod q, in canonical order."""
    return [chi for chi in enumerate_characters(q) if chi.is_primitive]


@lru_cache(maxsize=4096)
def primitive_value_matrix(q: int) -> np.ndarray | None:
    """Residue-value rows of all primitive characters mod q, or None if none."""
    prims = primitive_characters(q)
    if not prims:
        return None
    mat = np.vstack([chi.residue_values() for chi in prims])
    mat.setflags(write=False)
    return mat
