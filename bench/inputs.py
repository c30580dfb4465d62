"""Seeded input tables for the benchmark, written as bvlab `table` npz files.

A table holds f(p^k) for every prime power p^k <= limit, as the arrays
`prime_powers` and `values` that bvlab's {"kind": "table"} spec reads.
"""

from __future__ import annotations

import math

import numpy as np

from oracle import Sieve


def disc_points(rng: np.random.Generator, radius: np.ndarray) -> np.ndarray:
    """One point uniform in the disc of each given radius."""
    r = radius * np.sqrt(rng.random(len(radius)))
    return r * np.exp(2j * np.pi * rng.random(len(radius)))


def random_cm_table(rng: np.random.Generator, sieve: Sieve):
    """(pp, values): completely multiplicative f, f(p) uniform in the unit disc."""
    pk, p, k = sieve.prime_powers()
    at_p = np.zeros(sieve.limit + 1, dtype=np.complex128)
    at_p[sieve.primes] = disc_points(rng, np.ones(len(sieve.primes)))
    return pk, at_p[p] ** k


def solve_class_c(sieve: Sieve, lam: np.ndarray) -> np.ndarray:
    """f(p^k) from lambda_f(p^k) through the triangular recursion
    k log(p) f(p^k) = sum_{j=1..k} lambda_f(p^j) f(p^(k-j)).

    Rows follow Sieve.prime_powers(): by p, then k, so p^(k-j) is j rows
    above p^k.
    """
    _pk, p, k = sieve.prime_powers()
    logp = np.log(p)
    f = np.zeros(len(p), dtype=np.complex128)
    for kk in range(1, int(k.max()) + 1):
        rows = np.flatnonzero(k == kk)
        acc = lam[rows].copy()
        for j in range(1, kk):
            acc += lam[rows - (kk - j)] * f[rows - j]
        f[rows] = acc / (kk * logp[rows])
    return f


def random_class_c_lambdas(rng: np.random.Generator, sieve: Sieve) -> np.ndarray:
    """lambda_f(p^k) uniform in the disc of radius log p: class C by construction,
    and class C gives |f| <= 1."""
    _pk, p, _k = sieve.prime_powers()
    return disc_points(rng, np.log(p))


def plant_violation(rng: np.random.Generator, sieve: Sieve, lam: np.ndarray):
    """(lambdas, p): a copy of `lam` that leaves class C first at p^2.

    At one seeded prime p with p^2 <= limit < p^3 (100 < p <= 1000 at limit
    10^6), lambda(p) = 0 and log p < |lambda(p^2)| <= 2 log p. Then f(p) = 0
    and |f(p^2)| = |lambda(p^2)| / (2 log p) <= 1, so the table stays
    1-bounded.
    """
    pk, _p, _k = sieve.prime_powers()
    ps = sieve.primes
    cands = ps[(ps * ps <= sieve.limit) & (ps * ps * ps > sieve.limit)]
    p = int(rng.choice(cands))
    logp = math.log(p)
    row = int(np.flatnonzero(pk == p)[0])
    out = lam.copy()
    out[row] = 0
    out[row + 1] = logp * rng.uniform(1.5, 2.0) * np.exp(2j * np.pi * rng.random())
    return out, p


def save_table(path: str, pp: np.ndarray, values: np.ndarray) -> None:
    np.savez(path, prime_powers=pp.astype(np.int64), values=values)
