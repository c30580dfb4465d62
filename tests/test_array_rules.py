"""The array rule of every library function kind against its scalar rule.

The scalar rules in oracles.py run once per prime power (scalar_multfn); the
library's array rules must give the same bits, signed zeros included, at
the prime powers and in the dense sweep.
"""

import hashlib

import numpy as np
import pytest

from bvlab import ClassViolationError
from bvlab.characters import enumerate_characters
from bvlab.counterexample import counterexample_multfn, plan_counterexample
from bvlab.funcspec import parse_function_spec, save_pp_table
from bvlab.multfun import (
    character_fn,
    companion_split,
    inverse,
    lambda_seq,
    liouville,
    moebius,
    one,
    powerful,
    prime_power_values,
    restrict_to_primes,
    smooth_truncation,
    to_arith,
)
from families import seeded_family
from oracles import (
    character_rule,
    cm_spec_rule,
    counterexample_rule,
    liouville_rule,
    moebius_rule,
    one_rule,
    powerful_rule,
    scalar_companion_split,
    scalar_inverse,
    scalar_multfn,
    scalar_restrict_to_primes,
    scalar_smooth_truncation,
    table_rule,
)

LIM = 10**5
CHARS = [(q, label) for q in (7, 8, 15) for label in range(len(enumerate_characters(q)))]
CM_SPECS = [
    ({"2": [-0.0, 0.5], "3": [0.0, -0.0], "7": [0.6, -0.8]}, [-0.3, 0.4]),
    ({"2": [0.0, -0.0], "5": [-0.0, 0.5], "11": [-1.0, 0.0]}, [-0.0, -0.0]),
    ({"3": [-0.0, -1.0]}, None),
]


@pytest.fixture(scope="module")
def table(table_1e5):
    return table_1e5


def assert_same_bits(lib, ref, table, limit=LIM):
    got, want = prime_power_values(lib, limit, table), prime_power_values(ref, limit, table)
    assert got.tobytes() == want.tobytes()
    got, want = to_arith(lib, limit, table).values, to_arith(ref, limit, table).values
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make, rule",
    [
        (one, one_rule),
        (moebius, moebius_rule),
        (liouville, liouville_rule),
        (powerful, powerful_rule),
    ],
    ids=["one", "moebius", "liouville", "powerful"],
)
def test_builtin(table, make, rule):
    assert_same_bits(make(LIM), scalar_multfn(rule, LIM), table)


@pytest.mark.parametrize("q, label", CHARS)
def test_character(table, q, label):
    chi = enumerate_characters(q)[label]
    assert_same_bits(character_fn(chi, LIM), scalar_multfn(character_rule(chi), LIM), table)


@pytest.mark.parametrize("primes, default", CM_SPECS)
def test_cm_spec(table, primes, default):
    spec = {"kind": "cm", "primes": primes}
    if default is not None:
        spec["default"] = default
    at = {int(p): complex(*v) for p, v in primes.items()}
    ref = cm_spec_rule(at, complex(*default) if default is not None else 0j)
    assert_same_bits(parse_function_spec(spec, LIM, table), scalar_multfn(ref, LIM), table)


def test_table_with_absent_and_other_entries(table, tmp_path):
    rng = np.random.default_rng(7)
    pps = np.array([9, 2, 6, 1, 3, 12, 97, 8, 0, 1024, 99991, 100, -5, 99999989])
    vals = rng.uniform(-0.7, 0.7, len(pps)) + 1j * rng.uniform(-0.7, 0.7, len(pps))
    vals[[1, 4]] = [complex(-0.0, 0.5), complex(0.0, -0.0)]
    path = str(tmp_path / "t.npz")
    np.savez(path, prime_powers=pps, values=vals)
    lib = parse_function_spec({"kind": "table", "path": path}, LIM, table)
    assert_same_bits(lib, scalar_multfn(table_rule(path), LIM), table)
    pv = prime_power_values(lib, LIM, table)
    assert np.count_nonzero(pv) == 6  # 2, 8, 9, 97, 1024, 99991; 3 holds zeros, 5 is absent


def test_counterexample(table):
    spec = plan_counterexample(LIM, 2.0, None, table)
    lib = counterexample_multfn(spec)
    assert_same_bits(lib, scalar_multfn(counterexample_rule(spec), LIM), table)


def _bases():
    chi = enumerate_characters(7)[2]
    return {
        "moebius": (lambda: moebius(LIM), lambda: scalar_multfn(moebius_rule, LIM)),
        "character": (
            lambda: character_fn(chi, LIM),
            lambda: scalar_multfn(character_rule(chi), LIM),
        ),
        # two draws of one seed: each side reads its own family first
        "cm": (lambda: seeded_family(41, 1, LIM, "cm")[0],) * 2,
        "class-c": (lambda: seeded_family(42, 1, LIM, "class-c")[0],) * 2,
    }


DERIVED = {
    "inverse": (lambda f: inverse(f, LIM), lambda f: scalar_inverse(f, LIM)),
    "f_star": (lambda f: companion_split(f, LIM)[0], lambda f: scalar_companion_split(f, LIM)[0]),
    "powerful": (lambda f: companion_split(f, LIM)[1], lambda f: scalar_companion_split(f, LIM)[1]),
    "smooth": (lambda f: smooth_truncation(f, 300), lambda f: scalar_smooth_truncation(f, 300)),
}


@pytest.mark.parametrize("derive", DERIVED)
@pytest.mark.parametrize("base", ["moebius", "character", "cm", "class-c"])
def test_derived(table, base, derive):
    lib_base, ref_base = _bases()[base]
    lib, ref = DERIVED[derive]
    assert_same_bits(lib(lib_base()), ref(ref_base()), table)


@pytest.mark.parametrize("base", ["moebius", "character", "cm", "class-c"])
def test_restrict_to_primes(table, base):
    lib_base, ref_base = _bases()[base]
    got = restrict_to_primes(lib_base(), table, LIM).values
    want = scalar_restrict_to_primes(ref_base(), table, LIM)
    if not want.imag.any():  # a real function is float64: the oracle's real parts
        want = want.real
    assert got.dtype == (np.float64 if base == "moebius" else np.complex128)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# sha256 of prime_power_values(derived(fresh family), 10^5); every kind reads
# its family once, in ascending p^k: a change in the order the families draw
# in changes these
PINNED = {
    ("cm", "f"): "fa244edbbb0efc7582aa8189ffa5d4d9e6d882673b1d8cdc9e58d088300ab1e4",
    ("cm", "inverse"): "6cb4744323130334a4cda6415f89ce5aa86b20fb7b8739ccfdfb116b41908e47",
    ("cm", "f_star"): "fa244edbbb0efc7582aa8189ffa5d4d9e6d882673b1d8cdc9e58d088300ab1e4",
    ("cm", "powerful"): "9e78503083c0beffe1b2ab4c6c7863c229c3d001c360c02bdd9f6bb18b4d5a1e",
    ("cm", "smooth"): "346985114625cfc9480dd38b3de6cab164a3ad0d98e6ed95c1863405ad1168dc",
    ("class-c", "f"): "a4233ba93a81c295fc3cf2b7bf2fa21569738a8d19c89d84f85a2dd462a58491",
    ("class-c", "inverse"): "d098de344e4bb56d534664e61d0f3b679773b9b1479ab2262ccb31a341d024b0",
    ("class-c", "f_star"): "74939cae3f9f25b0b72ee83a6f6081d7da72d2e880fb445e4b377b89b9479b79",
    ("class-c", "powerful"): "4ba6a4529d1c31813e1659398ef66a27ccc5218bb6d597581f39bb43b6e41a4f",
    ("class-c", "smooth"): "c8e5c5128af07810eb4ac5814adc16174b55b025e7d1b15b20af3a8da5396031",
}


@pytest.mark.parametrize("kind, derive", PINNED)
def test_seeded_families_draw_in_the_same_order(table, kind, derive):
    f = seeded_family(31 if kind == "cm" else 32, 1, LIM, kind=kind)[0]
    if derive != "f":
        f = DERIVED[derive][0](f)
    digest = hashlib.sha256(prime_power_values(f, LIM, table).tobytes()).hexdigest()
    assert digest == PINNED[(kind, derive)]


def test_unit_disc_check_names_the_least_offender(table, tmp_path):
    path = str(tmp_path / "bad.npz")
    np.savez(path, prime_powers=np.array([25, 2, 9]), values=np.array([np.nan, 0.5, 1.5 + 0j]))
    lib = parse_function_spec({"kind": "table", "path": path}, 100, table)
    ref = scalar_multfn(table_rule(path), 100, label=lib.label)
    with pytest.raises(ClassViolationError) as want:
        prime_power_values(ref, 100, table)
    assert str(want.value) == f"|f(3^2)| = 1.5 exceeds 1 (label='table:{path}')"
    runs = [
        lambda: to_arith(lib, 100, table),
        lambda: lambda_seq(lib, 100, table),
        lambda: save_pp_table(lib, 100, table, tmp_path / "out.npz"),
    ]
    for run in runs:
        with pytest.raises(ClassViolationError) as got:
            run()
        assert str(got.value) == str(want.value)
    np.savez(path, prime_powers=np.array([2, 25]), values=np.array([0.5, np.nan]))
    lib = parse_function_spec({"kind": "table", "path": path}, 100, table)
    with pytest.raises(ClassViolationError, match=r"^\|f\(5\^2\)\| = nan exceeds 1"):
        to_arith(lib, 100, table)
