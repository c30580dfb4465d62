"""to_arith's per-block prime-power sieve against the spf sweep it replaced.

oracles.spf_sweep_to_arith finds each n's spf-power part from table.spf
and a dense index over 0..limit. The block sieve must give the same dtype
and the same bytes, signed zeros included, for every function kind, at the
block edges (2^18 values per block once blocks stop doubling) and at the
edges of the 2^16-value chunks that each block forms its products in.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab import build_prime_table
from bvlab.counterexample import counterexample_multfn, plan_counterexample
from bvlab.funcspec import parse_function_spec
from bvlab.multfun import (
    _BLOCK,
    _CHUNK,
    MultFn,
    cm_from_arrays,
    companion_split,
    inverse,
    liouville,
    moebius,
    one,
    powerful,
    prime_power_values,
    smooth_truncation,
    to_arith,
)
from oracles import spf_sweep_to_arith

TOP = 10**6 + 7  # every function's limit
LIMITS = [1, 2, 3, 4, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 2**18 - 1, 2**18, 2**18 + 1, 2**19 + 3, TOP]
REAL_CM = {"kind": "cm", "primes": {"2": [-0.5, 0], "3": [0.0, -0.0], "5": [-0.0, 0.0],
                                    "7": [1, -0.0]}, "default": [-0.25, 0.0]}


@pytest.fixture(scope="module")
def table():
    return build_prime_table(TOP + 1000)


def _disc(rng, n):
    return np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _complex_table(path, table):
    rng = np.random.default_rng(13)
    pks = table.prime_powers(TOP)[0]
    vals = _disc(rng, len(pks))
    vals.real[rng.integers(0, len(pks), 200)] = -0.0
    vals.imag[rng.integers(0, len(pks), 200)] = -0.0
    np.savez(path, prime_powers=pks, values=vals)
    return {"kind": "table", "path": path}


def _functions(table, tmp_path):
    z = _disc(np.random.default_rng(12), 97)
    cm = cm_from_arrays(lambda p: z[p % 97], TOP, label="cm")
    tab = parse_function_spec(_complex_table(str(tmp_path / "t.npz"), table), TOP, table)
    return {
        "moebius": moebius(TOP),
        "liouville": liouville(TOP),
        "one": one(TOP),
        "powerful": powerful(TOP),
        "counterexample": counterexample_multfn(plan_counterexample(TOP, 2.0, None, table)),
        "real-cm": parse_function_spec(REAL_CM, TOP, table),
        "complex-cm": cm,
        "complex-table": tab,
        "inverse": inverse(cm, TOP),
        "companion-g": companion_split(tab, TOP)[1],
        "smooth": smooth_truncation(tab, 300),
    }


def _same_bytes(f, limit, table):
    got = to_arith(f, limit, table).values
    want = spf_sweep_to_arith(f, limit, table).values
    assert got.dtype == want.dtype, limit
    assert got.tobytes() == want.tobytes(), limit
    return got


@pytest.mark.parametrize(
    "kind",
    ["moebius", "liouville", "one", "powerful", "counterexample", "real-cm", "complex-cm",
     "complex-table", "inverse", "companion-g", "smooth"],
)
def test_block_sieve_matches_spf_sweep_bytes(table, tmp_path, kind):
    f = _functions(table, tmp_path)[kind]
    for limit in LIMITS:
        got = _same_bytes(f, limit, table)
    real = kind in ("moebius", "liouville", "one", "powerful", "counterexample", "real-cm")
    assert got.dtype == (np.float64 if real else np.complex128)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    limit=st.integers(1, 600000) | st.integers(1, 3000),
    kind=st.sampled_from(["real", "complex"]),
)
def test_block_sieve_property(table, seed, limit, kind):
    rng = np.random.default_rng(seed)
    pks = table.prime_powers(limit)[0]
    vals = rng.uniform(-1, 1, len(pks)) + 0j
    if kind == "complex":
        vals = _disc(rng, len(pks))
    for part in (vals.real, vals.imag) if len(pks) else ():
        part[rng.integers(0, len(pks), 8)] = -0.0
        part[rng.integers(0, len(pks), 8)] = 0.0
    f = MultFn(lambda p, k: vals[np.searchsorted(pks, p**k)], limit)
    _same_bytes(f, limit, table)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_to_arith_holds_its_output_a_block_index_and_a_few_chunks(table_1e6, kind):
    lim = 10**6
    z = _disc(np.random.default_rng(14), 97)
    f = moebius(lim) if kind == "real" else cm_from_arrays(lambda p: z[p % 97], lim)
    n_pp = len(prime_power_values(f, lim, table_1e6))  # f's one read, outside the trace
    tracemalloc.start()
    try:
        out = to_arith(f, lim, table_1e6).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == (np.float64 if kind == "real" else np.complex128)
    # the block index; per chunk value the ramp, n, p^e and the cofactor's
    # index (8 B each) and the two gathers (the output's itemsize); p^k as
    # float64 and a real f's values made contiguous (16 B a prime power); and
    # a block's own prime-power indices (under 1 MB): 7.6 and 8.6 MB here.
    # Temporaries over whole 2^18-value blocks read 9.1 and 21.6 MB
    work = _BLOCK * 8 + _CHUNK * (4 * 8 + 2 * out.itemsize) + 16 * n_pp + 2**20
    assert peak - out.nbytes <= work
