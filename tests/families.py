"""Seeded random families of class-C multiplicative functions.

Two flavors:
  * completely multiplicative with f(p) uniform in the closed unit disc;
  * fully random class-C, built by drawing the log-derivative coefficients
    lambda_f(p^k) uniformly in the disc of radius log p and solving the
    triangular recursion for f(p^k) -- class C holds by construction, and
    class C implies |f| <= 1.
"""

import cmath
import math
import random

from bvlab.multfun import MultFn
from oracles import cm_multfn, scalar_multfn


def _disc_point(rng: random.Random, radius: float = 1.0) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2 * math.pi * rng.random()
    return cmath.rect(r, theta)


def random_cm(rng: random.Random, limit: int) -> MultFn:
    values: dict[int, complex] = {}

    def at_prime(p: int) -> complex:
        if p not in values:
            values[p] = _disc_point(rng)
        return values[p]

    return cm_multfn(at_prime, limit, label="random-cm")


def random_class_c(rng: random.Random, limit: int) -> MultFn:
    """Random class-C function: lambda-coefficients drawn, f solved for."""
    fcache: dict[tuple[int, int], complex] = {}
    lcache: dict[tuple[int, int], complex] = {}

    def frule(p: int, k: int) -> complex:
        logp = math.log(p)
        for kk in range(1, k + 1):
            if (p, kk) in fcache:
                continue
            lcache[(p, kk)] = _disc_point(rng, logp)
            acc = lcache[(p, kk)]
            for j in range(1, kk):
                fprev = fcache[(p, kk - j)]
                acc += lcache[(p, j)] * fprev
            fcache[(p, kk)] = acc / (kk * logp)
        return fcache[(p, k)]

    return scalar_multfn(frule, limit, label="random-class-c")


def seeded_family(seed: int, count: int, limit: int, kind: str = "cm"):
    rng = random.Random(seed)
    maker = {"cm": random_cm, "class-c": random_class_c}[kind]
    return [maker(random.Random(rng.randrange(2**63)), limit) for _ in range(count)]
