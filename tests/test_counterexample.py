import math
import tracemalloc

import numpy as np
import pytest

from bvlab import euler_phi
from bvlab.counterexample import (
    CounterexampleSpec,
    counterexample_multfn,
    default_Q,
    identity_validity_bound,
    lower_bound_report,
    plan_counterexample,
    pointwise_identity_check,
    primes_with_divisor_in,
    range_extension_check,
)
from bvlab.discrepancy import delta
from bvlab.multfun import class_c_check, to_arith
from oracles import evaluate, script_P_indicator, smoothness


def spec_for(x, gamma, table, Q=None):
    return plan_counterexample(x, gamma, Q, table)


def test_script_P_interval_examples(table_1e4):
    # (y/2, y] = (50, 100], prime divisor of p-1 in (3, 6] = {5}
    got = primes_with_divisor_in(50, 100, 3, 6, table_1e4)
    assert got == {61, 71}
    # no primes in (q_lo, q_hi] -> empty
    assert primes_with_divisor_in(50, 100, 24, 28, table_1e4) == frozenset()
    # (5, 10] supplies only 7
    assert primes_with_divisor_in(50, 100, 5, 10, table_1e4) == {71}


def test_plan_shapes(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    assert spec.Q == default_Q(x) == round(x**0.35)
    assert spec.y == pytest.approx(x / math.log(x) ** 2)
    assert spec.z == pytest.approx(2 * math.log(x) ** 2)
    assert all(spec.y / 2 < p <= spec.y for p in spec.script_P)


def test_prime_values(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    f = counterexample_multfn(spec)
    for p in spec.script_P:
        assert evaluate(f, p, table_1e5) == -1
    for p in table_1e5.primes_in(2, spec.z):
        assert evaluate(f, int(p), table_1e5) == 0
    for p in table_1e5.primes_in(spec.y, min(x, 10 * spec.y)):
        assert evaluate(f, int(p), table_1e5) == 0
    plus = [int(p) for p in table_1e5.primes_in(spec.z, spec.y) if int(p) not in spec.script_P]
    for p in plus[:50]:
        assert evaluate(f, p, table_1e5) == 1
    # complete multiplicativity: product of two "+1" primes
    p1, p2 = plus[0], plus[1]
    if p1 * p2 <= x:
        assert evaluate(f, p1 * p2, table_1e5) == 1


def test_smooth_support(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    f = counterexample_multfn(spec)
    fd = to_arith(f, 10**4, table_1e5)
    for n in range(1, 10**4 + 1):
        if fd.values[n] != 0:
            p_plus, _ = smoothness(n, table_1e5)
            assert p_plus <= spec.y


def test_class_c(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    f = counterexample_multfn(spec)
    ok, witness = class_c_check(f, 10**4, table_1e5)
    assert ok, witness


def test_pointwise_identity(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    bound = identity_validity_bound(spec)
    assert pointwise_identity_check(spec, range(1, min(bound, 2 * 10**4) + 1), table_1e5) == 0
    # one-element ranges agree
    some = [1, 2, 97, 9973, next(iter(spec.script_P))]
    for n in some:
        assert pointwise_identity_check(spec, range(n, n + 1), table_1e5) == 0


def test_pointwise_identity_on_script_primes(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    f = counterexample_multfn(spec)
    p = min(spec.script_P)
    assert evaluate(f, p, table_1e5) == -1 == abs(-1) - 2


def test_range_extension(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    flags = range_extension_check(spec, table_1e5)
    qs = [int(q) for q in table_1e5.primes_in(spec.Q, 2 * spec.Q)]
    assert sorted(flags) == qs
    assert all(flags.values())


def test_lower_bound_report(table_1e5):
    x = 10**5
    spec = spec_for(x, 2.0, table_1e5)
    rep = lower_bound_report(spec, table_1e5)
    # rows list one prime q per row and the total matches
    assert rep.bv_partial_sum == pytest.approx(sum(r[1] for r in rep.rows))
    assert rep.normalizer == pytest.approx(spec.y / math.log(x) ** 2)
    assert rep.ratio == pytest.approx(rep.bv_partial_sum / rep.normalizer)
    assert rep.scriptP_density == pytest.approx(
        len(spec.script_P) * math.log(x) ** 2 / spec.y
    )
    for q, d, phi_q, pi_diff, script_term in rep.rows:
        assert table_1e5.is_prime(q)
        assert d == abs(pi_diff - script_term)


def _assert_rows_match_per_modulus_delta(x, table):
    # the rows as they were formed with one delta call per prime q
    spec = spec_for(x, 2.0, table)
    ind = script_P_indicator(spec)
    ps = table.primes_in(spec.y / 2, spec.y)
    want = []
    for q in table.primes_in(spec.Q, 2 * spec.Q):
        q = int(q)
        d = abs(delta(ind, x, q, 1).delta)
        phi_q = euler_phi(q, table)
        want.append((q, d, phi_q, int(np.count_nonzero(ps % q == 1)), len(spec.script_P) / phi_q))
    assert len(want) > 10
    assert repr(lower_bound_report(spec, table).rows) == repr(want)


def test_lower_bound_rows_match_per_modulus_delta(table_1e5):
    _assert_rows_match_per_modulus_delta(10**5, table_1e5)


def test_lower_bound_rows_match_delta_over_several_slices(table_1e5):
    # 2^18 + 4 values: more than one 1 MB slice of an int32 or a float64 sweep
    _assert_rows_match_per_modulus_delta(2**18 + 3, table_1e5)


def test_lower_bound_report_builds_no_dense_indicator(table_1e6):
    spec = spec_for(10**6, 2.0, table_1e6)
    tracemalloc.start()
    try:
        lower_bound_report(spec, table_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # an int32 indicator of 0..10^6 alone is 4 MB


def test_lower_bound_empty_script_P(table_1e4):
    # primes in (15, 30] have p-1 in {16, 18, 22, 28}: no factor in (12, 24],
    # so script_P is empty and every row is exactly zero.
    script_P = primes_with_divisor_in(15, 30, 12, 24, table_1e4)
    assert script_P == frozenset()
    spec = CounterexampleSpec(
        x=900, gamma=1.774, Q=12, y=30.0, z=60.0, script_P=script_P
    )
    rep = lower_bound_report(spec, table_1e4)
    assert rep.bv_partial_sum == 0
    assert all(r[1] == 0 and r[3] == 0 for r in rep.rows)
    assert len(rep.rows) == 4  # q in {13, 17, 19, 23}
