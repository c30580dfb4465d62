"""Reference computations that bvlab's outputs are checked against.

Nothing here imports bvlab. The sieve, the Moebius function, the
materialization of multiplicative functions, the characters mod 3 and 4 and
the counterexample's set P are written again from their definitions, so a
fault in bvlab cannot hide by being shared with its checker.
"""

from __future__ import annotations

import math

import numpy as np

# The nontrivial characters mod 3 and mod 4, written out on residues.
CHI3 = np.array([0.0, 1.0, -1.0])
CHI4 = np.array([0.0, 1.0, 0.0, -1.0])


class Sieve:
    """Smallest prime factors of 0..limit (0 at 0 and 1) and the primes."""

    def __init__(self, limit: int):
        spf = np.zeros(limit + 1, dtype=np.int64)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                seg = spf[p * p :: p]
                seg[seg == 0] = p
        idx = np.arange(limit + 1)
        unmarked = spf == 0
        unmarked[:2] = False
        spf[unmarked] = idx[unmarked]
        self.limit = limit
        self.spf = spf
        self.primes = idx[unmarked]
        self._prime_powers = None

    def prime_powers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p^k, p, k) for every prime power p^k <= limit, ordered by p then k."""
        if self._prime_powers is None:
            self._prime_powers = self._list_prime_powers()
        return self._prime_powers

    def _list_prime_powers(self):
        rows = []
        ps = self.primes
        k = 1
        pk = ps.copy()
        while len(ps):
            rows.append((pk, ps, np.full(len(ps), k)))
            keep = pk <= self.limit // ps
            ps, pk = ps[keep], pk[keep] * ps[keep]
            k += 1
        pk, p, kk = (np.concatenate(c) for c in zip(*rows))
        order = np.lexsort((kk, p))
        return pk[order], p[order], kk[order]

    def moebius(self) -> np.ndarray:
        """mu(0..limit), with mu(0) = 0."""
        mu = np.ones(self.limit + 1)
        mu[0] = 0.0
        for p in self.primes:
            mu[p :: p] *= -1.0
            mu[p * p :: p * p] = 0.0
        return mu

    def materialize(self, pp: np.ndarray, values: np.ndarray) -> np.ndarray:
        """f(0..limit) for the multiplicative f with f(p^k) = values at pp.

        Each n is peeled one prime-power part at a time, all n at once; prime
        powers absent from the table read as 0.
        """
        dtype = np.float64 if np.isrealobj(values) else np.complex128
        at = np.zeros(self.limit + 1, dtype=dtype)
        at[pp] = values
        out = np.ones(self.limit + 1, dtype=dtype)
        out[0] = 0
        n = np.arange(2, self.limit + 1)
        rest = n.copy()
        while len(n):
            p = self.spf[rest]
            part = p.copy()
            rest = rest // p
            more = rest % p == 0
            while more.any():
                part[more] *= p[more]
                rest[more] //= p[more]
                more = rest % p == 0
            out[n] *= at[part]
            live = (rest > 1) & (out[n] != 0)
            n, rest = n[live], rest[live]
        return out


def residue_sums(values: np.ndarray, x: int, q: int) -> np.ndarray:
    """b[r] = sum of values[n] over 1 <= n <= x with n = r (mod q)."""
    n = np.arange(1, x + 1)
    v = values[1 : x + 1]
    if np.iscomplexobj(v):
        return np.bincount(n % q, weights=v.real, minlength=q) + 1j * np.bincount(
            n % q, weights=v.imag, minlength=q
        )
    return np.bincount(n % q, weights=v, minlength=q)


def residue_distances(values: np.ndarray, x: int, q: int, xi: tuple[int, ...] = ()):
    """(coprime residues r, |Delta(f, x; q, r)|) with Xi = {1} plus `xi`.

    `xi` lists the primitive real characters in the correction set beyond the
    trivial one, by modulus (3 and 4 are known). For xi = () this is the
    plain discrepancy: progression sum minus the coprime average.
    """
    b = residue_sums(values, x, q)
    rs = np.array([r for r in range(q) if math.gcd(r, q) == 1]) if q > 1 else np.array([0])
    chars = [np.ones(len(rs))]
    for m in xi:
        if q % m == 0:
            chars.append({3: CHI3, 4: CHI4}[m][rs % m])
    corr = np.zeros(len(rs), dtype=np.complex128)
    for chi in chars:
        corr += chi * np.sum(chi * b[rs])  # real characters: conj(chi) = chi
    corr /= len(rs)
    return rs, np.abs(b[rs] - corr)


def counterexample_set(x: int, gamma: float, Q: int, sieve: Sieve):
    """(y, z, P) of the construction, from the paper's definition.

    y = x / (log x)^gamma, z = 2 (log x)^gamma, and P is the set of primes
    p in (y/2, y] such that p - 1 has a prime factor in (Q, 2Q].
    """
    logx = math.log(x)
    y = x / logx**gamma
    z = 2 * logx**gamma
    ps = sieve.primes
    cand = ps[(ps > y / 2) & (ps <= y)]
    rs = ps[(ps > Q) & (ps <= 2 * Q)]
    hit = np.zeros(len(cand), dtype=bool)
    for r in rs:
        hit |= (cand - 1) % r == 0
    return y, z, cand[hit]


def counterexample_values(x: int, y: float, z: float, P: np.ndarray, sieve: Sieve):
    """f(0..x) for the completely multiplicative f: 0 at p <= z and p > y,
    -1 on P, +1 on the other primes in (z, y]."""
    pk, p, k = sieve.prime_powers()
    at_p = np.where((p > z) & (p <= y), 1.0, 0.0)
    at_p[np.isin(p, P)] = -1.0
    return sieve.materialize(pk, at_p**k), (pk, at_p**k)
