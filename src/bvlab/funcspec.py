"""JSON mini-language for describing the function an experiment runs on.

Base kinds:
  {"kind": "builtin", "name": "one" | "moebius" | "liouville"}
  {"kind": "character", "q": Q, "label": K}        (canonical label)
  {"kind": "cm", "primes": {"2": [re, im], ...}, "default": [re, im]}
                                                   (keys must be primes)
  {"kind": "table", "path": "values.npz"}          (prime-power table)

A table npz holds a 1-D integer array prime_powers and a 1-D array values
of the same length; no entry of prime_powers may repeat. f(p^k) is the
value listed at p^k, and 0 where p^k is not listed; entries that are not
prime powers are never read.

Modifiers, applied in this fixed order regardless of key order:
  {"smooth_y": Y}       zero out prime powers with p > Y
  {"restrict": "primes"}   keep only values at primes (densifies)
  {"log_twist": X}      multiply by log(n) / log(X)

The result is a MultFn unless restrict/log_twist forced densification,
in which case it is an ArithFn over [1, limit].
"""

from __future__ import annotations

import json
import math
import zipfile

import numpy as np

from .characters import enumerate_characters
from .core_arith import PrimeTable
from .errors import ParameterError
from .multfun import (
    MultFn,
    _prefix,
    character_fn,
    cm_from_arrays,
    liouville,
    log_twist,
    moebius,
    one,
    restrict_to_primes,
    smooth_truncation,
    to_arith,
)

_BUILTINS = {"one": one, "moebius": moebius, "liouville": liouville}
_MODIFIER_KEYS = ("smooth_y", "restrict", "log_twist")


def _as_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(t, (int, float)) for t in pair)
    ):
        raise ParameterError(f"{where}: expected [re, im], got {pair!r}")
    v = complex(pair[0], pair[1])
    if not abs(v) <= 1 + 1e-12:  # NaN fails too
        raise ParameterError(f"{where}: |value| = {abs(v)} exceeds 1")
    return v


def _lookup(keys: np.ndarray, values: np.ndarray, default: complex):
    """n -> the value at n in sorted distinct keys, else default, over an int64 array n."""

    def get(n: np.ndarray) -> np.ndarray:
        if not len(keys):
            return np.full(len(n), default, dtype=np.complex128)
        i = np.minimum(np.searchsorted(keys, n), len(keys) - 1)
        return np.where(keys[i] == n, values[i], default)

    return get


def _load_pp_table(path: str, limit: int) -> MultFn:
    try:
        with np.load(path) as data:
            pps = data["prime_powers"]
            values = data["values"].astype(np.complex128)
    except KeyError as exc:
        raise ParameterError(
            f"table {path}: missing array {exc} (need prime_powers, values)"
        ) from exc
    except (OSError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        # TypeError: a plain .npy array is not a context manager
        raise ParameterError(f"table {path}: cannot read npz: {exc}") from exc
    if pps.ndim != 1 or values.ndim != 1:
        raise ParameterError(
            f"table {path}: prime_powers and values must be 1-D, got shapes "
            f"{pps.shape} and {values.shape}"
        )
    if pps.dtype.kind not in "iu":
        raise ParameterError(f"table {path}: prime_powers must be integers, got {pps.dtype}")
    if len(pps) != len(values):
        raise ParameterError(f"table {path}: prime_powers and values disagree in length")
    pps = pps.astype(np.int64)
    order = np.argsort(pps, kind="stable")
    keys = pps[order]
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if len(twice):
        raise ParameterError(f"table {path}: prime power {keys[twice[0]]} is listed twice")
    get = _lookup(keys, values[order], 0j)  # absent prime powers read as 0
    return MultFn(lambda p, k: get(p**k), limit, label=f"table:{path}")


def save_pp_table(f: MultFn, limit: int, table: PrimeTable, path) -> None:
    """Dump f's prime-power values up to limit, p then k, as an npz loadable by "table".

    The file is written at `path` as given: np.savez would add ".npz" to a name without it.
    """
    pks, ps, ks, values = _prefix(f, limit, table)
    order = np.lexsort((ks, ps))
    with open(path, "wb") as fh:
        np.savez(fh, prime_powers=pks[order], values=values[order])


def parse_function_spec(spec, limit: int, table: PrimeTable):
    """Build the function described by `spec` (JSON text or dict)."""
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"function spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParameterError(f"function spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "builtin":
        name = spec.get("name")
        if name not in _BUILTINS:
            raise ParameterError(
                f"builtin name must be one of {sorted(_BUILTINS)}, got {name!r}"
            )
        f = _BUILTINS[name](limit)
    elif kind == "character":
        q = spec.get("q")
        label = spec.get("label")
        if not isinstance(q, int) or q < 1:
            raise ParameterError(f"character q must be a positive integer, got {q!r}")
        chars = enumerate_characters(q, table)
        if not isinstance(label, int) or not 0 <= label < len(chars):
            raise ParameterError(
                f"character label must be in [0, {len(chars)}) for q={q}, got {label!r}"
            )
        f = character_fn(chars[label], limit)
    elif kind == "cm":
        primes_obj = spec.get("primes", {})
        if not isinstance(primes_obj, dict):
            raise ParameterError(f"cm primes must be an object, got {primes_obj!r}")
        at = {}
        for key, pair in primes_obj.items():
            try:
                p = int(key)
            except ValueError:
                raise ParameterError(f"cm primes key {key!r} is not an integer")
            if p < 2 or (p <= table.limit and not table.is_prime(p)):
                raise ParameterError(f"cm primes key {key!r} is not a prime")
            at[p] = _as_complex(pair, f"cm primes[{key}]")
        default = (
            _as_complex(spec["default"], "cm default") if "default" in spec else 0j
        )
        listed = sorted(p for p in at if p <= limit)  # only these can be looked up
        get = _lookup(
            np.array(listed, dtype=np.int64), np.array([at[p] for p in listed], complex), default
        )
        f = cm_from_arrays(get, limit, label="cm")
    elif kind == "table":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ParameterError(f"table path must be a string, got {path!r}")
        f = _load_pp_table(path, limit)
    else:
        raise ParameterError(f"unknown function kind {kind!r}")

    unknown = set(spec) - {"kind", "name", "q", "label", "primes", "default", "path"}
    unknown -= set(_MODIFIER_KEYS)
    if unknown:
        raise ParameterError(f"unrecognized function-spec fields: {sorted(unknown)}")

    if "smooth_y" in spec:
        y = spec["smooth_y"]
        if not isinstance(y, (int, float)) or y < 2:
            raise ParameterError(f"smooth_y must be a number >= 2, got {y!r}")
        f = smooth_truncation(f, float(y))
    if "restrict" in spec:
        if spec["restrict"] != "primes":
            raise ParameterError(
                f'restrict only supports "primes", got {spec["restrict"]!r}'
            )
        f = restrict_to_primes(f, table, limit)
    if "log_twist" in spec:
        X = spec["log_twist"]
        if not isinstance(X, (int, float)) or X <= 1:
            raise ParameterError(f"log_twist must be a number > 1, got {X!r}")
        if isinstance(f, MultFn):
            f = to_arith(f, limit, table)
        f = log_twist(f, math.log(X))
    return f
