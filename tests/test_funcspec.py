import json
import math

import numpy as np
import pytest

from bvlab import ParameterError
from bvlab.funcspec import parse_function_spec, save_pp_table
from bvlab.multfun import ArithFn, MultFn, moebius, to_arith
from oracles import evaluate


@pytest.fixture(scope="module")
def table(table_1e4):
    return table_1e4


def test_builtin_moebius(table):
    f = parse_function_spec({"kind": "builtin", "name": "moebius"}, 100, table)
    assert isinstance(f, MultFn)
    assert evaluate(f, 30, table) == -1
    assert evaluate(f, 60, table) == 0


def test_smooth_modifier_spot_values(table):
    # n = 22 = 2*11 is the first even non-10-smooth value; 14 = 2*7 stays 1.
    f = parse_function_spec(
        '{"kind":"builtin","name":"one","smooth_y":10}', 100, table
    )
    assert evaluate(f, 22, table) == 0
    assert evaluate(f, 14, table) == 1
    assert evaluate(f, 63, table) == 1  # 3^2 * 7
    assert evaluate(f, 1, table) == 1


def test_character_kind_matches_canonical(table):
    f = parse_function_spec({"kind": "character", "q": 5, "label": 1}, 100, table)
    assert evaluate(f, 2, table) == pytest.approx(1j, abs=1e-12)
    assert evaluate(f, 6, table) == pytest.approx(1, abs=1e-12)


def test_cm_kind(table):
    spec = {"kind": "cm", "primes": {"2": [0.5, 0]}, "default": [1, 0]}
    f = parse_function_spec(spec, 100, table)
    assert evaluate(f, 8, table) == pytest.approx(0.125)
    assert evaluate(f, 3, table) == 1


def test_cm_defaults_to_zero(table):
    f = parse_function_spec({"kind": "cm", "primes": {"3": [1, 0]}}, 100, table)
    assert evaluate(f, 9, table) == 1
    assert evaluate(f, 2, table) == 0


def test_restrict_and_log_twist(table):
    f = parse_function_spec(
        {"kind": "builtin", "name": "one", "restrict": "primes"}, 50, table
    )
    assert isinstance(f, ArithFn)
    assert f.values[7] == 1 and f.values[8] == 0
    g = parse_function_spec(
        {"kind": "builtin", "name": "one", "log_twist": 100}, 100, table
    )
    assert isinstance(g, ArithFn)
    assert g.values[100] == pytest.approx(1)
    h = parse_function_spec(
        {"kind": "builtin", "name": "one", "restrict": "primes", "log_twist": 100},
        100,
        table,
    )
    assert h.values[97] == pytest.approx(math.log(97) / math.log(100))
    assert h.values[96] == 0


def test_table_kind_round_trip(tmp_path, table):
    path = str(tmp_path / "mu.npz")
    save_pp_table(moebius(500), 500, table, path)
    f = parse_function_spec({"kind": "table", "path": path}, 500, table)
    mu = to_arith(moebius(500), 500, table)
    got = to_arith(f, 500, table)
    assert np.array_equal(got.values, mu.values)


def test_diagnostics_name_offending_field(table):
    with pytest.raises(ParameterError, match="kind"):
        parse_function_spec({"kind": "nope"}, 10, table)
    with pytest.raises(ParameterError, match="builtin name"):
        parse_function_spec({"kind": "builtin", "name": "zeta"}, 10, table)
    with pytest.raises(ParameterError, match="label"):
        parse_function_spec({"kind": "character", "q": 5, "label": 9}, 10, table)
    with pytest.raises(ParameterError, match="exceeds 1"):
        parse_function_spec({"kind": "cm", "primes": {"2": [2, 0]}}, 10, table)
    with pytest.raises(ParameterError, match="smooth_y"):
        parse_function_spec({"kind": "builtin", "name": "one", "smooth_y": 1}, 10, table)
    with pytest.raises(ParameterError, match="restrict"):
        parse_function_spec({"kind": "builtin", "name": "one", "restrict": "odd"}, 10, table)
    with pytest.raises(ParameterError, match="unrecognized"):
        parse_function_spec({"kind": "builtin", "name": "one", "bogus": 3}, 10, table)
    with pytest.raises(ParameterError, match="JSON"):
        parse_function_spec("{not json", 10, table)
