"""The CLI's error contract under random flags.

Every command, with each of its keys drawn from a pool of good and bad
values (or left out), exits 0, 2 or 3 with at most one line on stderr, and
no exception escapes main. Sizes are capped so that no case allocates more
than a few MB or runs for more than about a second: x, X, limit and n at
10^4, trials at 3, Q, N-max, Q-max, U, V and R at 64, --threads 1 or 2.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.cli import _COMMANDS, _INTS, main
from bvlab.core_arith import build_prime_table, save_prime_table

CAP = {"trials": 3, **dict.fromkeys(["Q", "N-max", "Q-max", "U", "V", "R"], 64)}  # else 10^4

SPECS = [
    '{"kind":"builtin","name":"moebius"}',
    '{"kind":"builtin","name":"liouville","restrict":"primes"}',
    '{"kind":"builtin","name":"one","smooth_y":20}',
    '{"kind":"builtin","name":"moebius","restrict":"primes","log_twist":100}',
    '{"kind":"character","q":3,"label":1}',
    '{"kind":"cm","primes":{"2":[0.6,0.8],"3":[0,1]},"default":[0.28,0.96]}',
    '{"kind":"cm","primes":{"2":[-0.5,-0.0],"3":[0.0,-0.0]},"default":[-0.25,0.0]}',
    '{"kind":"table","path":"t.npz"}',
    # bad ones
    '{"kind":"table","path":"missing.npz"}',
    '{"kind":"character","q":5,"label":9}',
    '{"kind":"character","q":1000000007,"label":1}',
    '{"kind":"cm","default":[2,0]}',
    '{"kind":"builtin","name":"one","log_twist":1}',
    '{"kind":"builtin","name":"moebius","restrict":"odd"}',
    '{"kind":"nope"}',
    "[]",
    "{",
]
XIS = [
    "chi:q=1,label=0",
    "chi:q=3,label=1",
    "chi:q=1,label=0;chi:q=3,label=1;chi:q=4,label=1",
    "chi:q=5,label=1;chi:q=5,label=2",
    # bad ones
    "chi:q=5,label=9",
    "chi:q=0,label=0",
    "chi:q=1000000007,label=1",
    "chi:q=3,label=x",
    ";",
]
PATHS = ["out.bin", "out.bin", "f.npz", "no_such_dir/out.bin"]  # mostly writable
CACHES = ["sieve.bin", "missing.bin", ".", "t.npz"]
JUNK = st.sampled_from(["", "abc", "1e", "0x10", "[]", "{", "1,2", "--", "1e999", " ", "ü"])


def numbers(top, integer=False):
    """Small ints and floats up to top in size, NaN, +-inf, negatives and 0 among them.

    An integer flag draws mostly integers, so that more cases get past the parsing.
    """
    special = [0, -0.0, -1, 1, 2, 0.5, 1.5, 3, 7, 100, 400, -1e3, math.nan, math.inf, -math.inf]
    ints, floats = st.integers(-3, top), st.floats(-top, top)
    special = st.sampled_from([v for v in special if not abs(v) > top])
    return st.one_of(ints, ints, ints, special) if integer else st.one_of(ints, floats, special)


def pool(key):
    if key in ("f", "g"):
        return st.sampled_from(SPECS)
    if key in ("xi", "psi"):
        return st.sampled_from(XIS)
    if key == "dump-f":
        return st.sampled_from(PATHS)
    if key == "X-grid":
        return st.lists(numbers(10**4), min_size=1, max_size=3).map(
            lambda xs: ",".join(str(x) for x in xs)
        )
    return numbers(CAP.get(key, 10**4), key in _INTS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    save_prime_table(build_prime_table(10**4), str(d / "sieve.bin"))
    np.savez(d / "t.npz", prime_powers=np.array([2, 4, 3, 9, 5]),
             values=np.array([0.5, -0.25, -1, 0.5j, 0.0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        yield d


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_input_exits_0_2_or_3(workdir, command, data):
    argv = [command, "--out", data.draw(st.sampled_from(PATHS), label="out")]
    for key in [k.rstrip("?") for k in _COMMANDS[command][1]]:
        how = data.draw(st.sampled_from(["good"] * 12 + ["junk", "missing"]), label=key)
        if how != "missing":
            value = data.draw(pool(key) if how == "good" else JUNK, label=key)
            argv.append(f"--{key}={value}")  # "=": argparse reads "-inf" as a flag
    extra = {
        "--threads": st.sampled_from(["1", "2"]),
        "--seed": st.sampled_from([None, "0", "1", "12345"]),
        "--cache": st.sampled_from([None] * 4 + CACHES),
    }
    if command == "counterexample":
        extra["--csv"] = st.sampled_from([None] + PATHS)
    for flag, strategy in extra.items():
        value = data.draw(strategy, label=flag)
        if value is not None:
            argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (json.dumps(argv), err.getvalue())
    if code:
        assert err.getvalue().count("\n") == 1, (json.dumps(argv), err.getvalue())
