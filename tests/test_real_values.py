"""Real functions as float64: the sweep against the complex one it replaces.

oracles.complex_to_arith is the complex128 sweep to_arith ran for every
function before real ones were kept as float64. The float64 values must be
its real parts, up to the sign of zeros (hence the + 0.0 before comparing
bytes), and no output may tell the two apart.
"""

import math

import numpy as np
import pytest

from bvlab import discrepancy
from bvlab.cli import _jdump, _report_obj
from bvlab.counterexample import counterexample_multfn, plan_counterexample
from bvlab.discrepancy import bv_sum, delta, residue_buckets
from bvlab.funcspec import parse_function_spec
from bvlab.multfun import (
    ArithFn,
    MultFn,
    liouville,
    log_twist,
    moebius,
    one,
    restrict_to_primes,
    smooth_truncation,
    to_arith,
)
from oracles import complex_to_arith, delta_fn, evaluate, script_P_indicator, trial_division

LIM = 10**5
REAL_CM = {"kind": "cm", "primes": {"2": [-0.5, 0], "3": [0.0, -0.0], "7": [1, -0.0]},
           "default": [-0.25, 0.0]}


@pytest.fixture(scope="module")
def table(table_1e5):
    return table_1e5


def _real_table(path):
    rng = np.random.default_rng(8)
    pps = np.array([2, 4, 8, 3, 9, 5, 25, 7, 11, 97, 1024, 99991])
    vals = rng.uniform(-0.9, 0.9, len(pps))
    vals[[3, 6]] = [-0.0, 0.0]
    np.savez(path, prime_powers=pps, values=vals)
    return {"kind": "table", "path": path}


def _bases(table, tmp_path):
    return {
        "moebius": moebius(LIM),
        "liouville": liouville(LIM),
        "one": one(LIM),
        "counterexample": counterexample_multfn(plan_counterexample(LIM, 2.0, None, table)),
        "cm": parse_function_spec(REAL_CM, LIM, table),
        "table": parse_function_spec(_real_table(str(tmp_path / "t.npz")), LIM, table),
    }


def _zeros_unsigned(v):
    return (v + 0.0).tobytes()


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("base", ["moebius", "liouville", "one", "counterexample", "cm", "table"])
def test_float64_sweep_is_the_real_part_of_the_complex_one(table, tmp_path, base, smooth):
    f = _bases(table, tmp_path)[base]
    if smooth:
        f = smooth_truncation(f, 300)
    got = to_arith(f, LIM, table)
    want = complex_to_arith(f, LIM, table)
    assert got.values.dtype == np.float64 and got.is_real
    assert np.all(want.imag == 0)
    assert _zeros_unsigned(got.values) == _zeros_unsigned(want.real)
    # restricted to the primes, f reads the same values as the sweep
    r = restrict_to_primes(f, table, LIM)
    primes = table.primes[table.primes <= LIM]
    at_primes = np.zeros(LIM + 1)
    at_primes[primes] = got.values[primes]
    assert r.values.dtype == np.float64 and _zeros_unsigned(r.values) == _zeros_unsigned(at_primes)


def test_complex_prime_power_values_keep_the_complex_sweep(table):
    f = parse_function_spec({"kind": "cm", "primes": {"2": [0.6, -0.8]}, "default": [1, 0]},
                            LIM, table)
    got = to_arith(f, LIM, table)
    assert got.values.dtype == np.complex128
    assert got.values.tobytes() == complex_to_arith(f, LIM, table).tobytes()


def test_real_builders_are_float64(table, monkeypatch):
    spec = plan_counterexample(LIM, 2.0, None, table)
    twist = log_twist(to_arith(one(100), 100, table), 3.0)
    handed = []
    buckets = discrepancy.residue_buckets

    def record(values, m, qs):
        handed.append(values)
        return buckets(values, m, qs)

    monkeypatch.setattr(discrepancy, "residue_buckets", record)
    # integer values take the integer path, a copy by design; this is about the float path
    monkeypatch.setattr(discrepancy, "small_integers", lambda v: None)
    for g in (script_P_indicator(spec), delta_fn(100), twist):
        assert g.values.dtype == np.float64 and g.is_real
        handed.clear()
        bv_sum(g, g.limit, 3)
        # the bucket pass reads the array itself, not a copy
        assert handed and all(np.shares_memory(v, g.values) for v in handed)


def test_real_complex_values_are_stored_as_float64():
    v = np.array([0, -0.5, -0.0, 1.5, 0.25]) + 1j * np.array([0, 0.0, -0.0, -0.0, 0.0])
    f = ArithFn(values=v, limit=4)
    assert f.values.dtype == np.float64 and f.is_real and f.values.flags.c_contiguous
    assert f.values.tobytes() == v.real.tobytes() and not np.shares_memory(f.values, v)
    g = ArithFn(values=v + 1e-300j, limit=4)
    assert g.values.dtype == np.complex128 and not g.is_real


def test_log_twist_rounds_as_the_complex_division(table):
    fd = to_arith(liouville(5000), 5000, table)
    # log_twist's complex branch in numpy: an ArithFn would store these real values as float64
    logs = np.zeros(5001)
    logs[1:] = np.log(np.arange(1, 5001))
    wide = fd.values.astype(np.complex128) * logs
    for X in (1.0, 3.0, math.log(1000), math.log(7.3)):
        got, want = log_twist(fd, X).values, wide / X
        assert got.dtype == np.float64
        assert _zeros_unsigned(got) == _zeros_unsigned(want.real)


@pytest.mark.parametrize("make", [moebius, liouville])
def test_delta_reports_match_the_complex_sweep(table, make):
    """The _jdump of delta reports, from the float64 and the complex ArithFn.

    A report depends on the values only through the residue buckets, so
    equal bucket bytes for every x <= 200 and q <= 60 make every report of
    that range equal; the reports themselves are compared for x <= 40.
    """
    f = make(200)
    new = to_arith(f, 200, table)
    old = ArithFn(values=complex_to_arith(f, 200, table), limit=200, label=f.label)
    for x in range(2, 201):
        for q in range(1, 61):
            b_new = residue_buckets(new.values[: x + 1], x, (q,))[0]
            b_old = residue_buckets(old.values[: x + 1], x, (q,))[0]
            assert b_new.tobytes() == b_old.tobytes(), (x, q)
            if x > 40:
                continue
            for a in range(q):
                if math.gcd(a, q) == 1:
                    got = _jdump(_report_obj(delta(new, x, q, a)))
                    assert got == _jdump(_report_obj(delta(old, x, q, a))), (x, q, a)


def test_pp_value_calls_an_array_rule_once_per_prime_power(table):
    seen = []

    def rule(p, k):
        seen.extend((p**k).tolist())
        return np.where(k == 1, -1.0, 0.0)

    f = MultFn(rule, 200)
    for n in range(1, 201):
        assert evaluate(f, n, table) == evaluate(moebius(200), n, table)
    assert sorted(seen) == [n for n in range(2, 201) if len(trial_division(n)) == 1]
