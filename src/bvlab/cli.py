"""Command-line harness: named experiments over the library, CSV/JSON out.

Every command is a thin dispatcher onto one library operation; outputs are
byte-deterministic given (config, seed), independent of --threads. A run
manifest (config echo, library version, sieve limit, wall time, output
checksums) is printed to stdout as JSON.

Exit codes: 0 success; 2 config error; 3 precondition violation;
4 invariant violation detected (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .characters import CharacterSet, enumerate_characters, trivial_set
from .core_arith import build_prime_table, load_prime_table, save_prime_table
from .counterexample import (
    counterexample_multfn,
    identity_validity_bound,
    lower_bound_report,
    plan_counterexample,
    pointwise_identity_check,
    range_extension_check,
)
from .decomposition import (
    bilinear_ls_eval,
    dyadic_cells,
    smooth_factor_split,
    split_sum_assemble,
    truncation_difference_check,
)
from .discrepancy import (
    bv_sum,
    delta,
    delta_xi,
    large_sieve_check,
    partial_summation_check,
    sw_profile,
    twisted_sum,
)
from .errors import InvariantViolationError, ParameterError
from .funcspec import parse_function_spec, save_pp_table
from .multfun import (
    ArithFn,
    MultFn,
    Support,
    companion_split,
    dirichlet_convolve,
    inverse,
    lambda_seq,
    log_twist,
    powerful,
    prime_power_values,
    to_arith,
)


class ConfigError(Exception):
    pass


# --- deterministic serialization -----------------------------------------


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _jdump(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_jdump(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, complex):
        return _jdump([obj.real, obj.imag])
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(_jdump(obj) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:  # every cell is an int or a float
            fh.write(",".join(_jdump(v) for v in row) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- shared argument handling ---------------------------------------------


_XI_RE = re.compile(r"chi:q=(\d+),label=(\d+)")


def _parse_xi(text: str, table) -> CharacterSet:
    members = []
    for part in str(text).split(";"):
        part = part.strip()
        if not part:
            continue
        m = _XI_RE.fullmatch(part)
        if not m:
            raise ConfigError(f'xi entry {part!r} is not of the form "chi:q=<q>,label=<k>"')
        q, label = int(m.group(1)), int(m.group(2))
        chars = enumerate_characters(q, table)
        if label >= len(chars):
            raise ConfigError(f"xi entry {part!r}: label out of range (phi(q)={len(chars)})")
        members.append(chars[label])
    if not members:
        raise ConfigError("xi description is empty")
    return CharacterSet(members=tuple(members))


# Flags typed by name; the rest (function specs, character lists, paths)
# pass through as given.
_INTS = frozenset({"q", "a", "n", "limit", "Q", "trials", "N-max", "Q-max", "U", "V"})
_FLOATS = frozenset({"x", "X", "y", "V0", "C", "A", "gamma", "R"})


def _number(key: str, value):
    """value as its flag's int or finite float; ConfigError when it is neither."""
    kind = int if key in _INTS else float
    try:
        v = float(value) if isinstance(value, float) else kind(value)
    except (TypeError, ValueError):
        v = math.nan
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)  # a JSON config may write 3 as 3.0
    if not isinstance(v, kind) or kind is float and not math.isfinite(v):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return v


def _typed(key: str, value):
    if key == "X-grid":
        grid = [_number(key, t) for t in str(value).split(",") if t]
        if not grid:
            raise ConfigError("X-grid must list at least one number")
        return grid
    return _number(key, value) if key in _INTS or key in _FLOATS else value


def _resolve(args: argparse.Namespace, keys: list[str]) -> None:
    """Set each key on args, typed: inline flags override values from --config.

    A key ending in "?" is optional and stays None when neither source has it.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    params = {}
    for key in keys:
        name = key.rstrip("?")
        inline = getattr(args, name.replace("-", "_"), None)
        params[name] = inline if inline is not None else cfg.get(name)
    missing = [k for k in keys if not k.endswith("?") and params[k] is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    for name, value in params.items():
        setattr(args, name.replace("-", "_"), None if value is None else _typed(name, value))


def _check_outputs(args: argparse.Namespace) -> None:
    """Each output path names a file in an existing directory; checked before the work."""
    for path in (args.out, getattr(args, "csv", None), getattr(args, "dump_f", None)):
        if path is not None and not (
            isinstance(path, str)
            and path
            and os.path.isdir(os.path.dirname(path) or ".")
            and not os.path.isdir(path)
        ):
            raise ConfigError(f"output {path!r} is not a file in an existing directory")


def _get_table(args: argparse.Namespace, needed_limit: int):
    if args.cache:
        table = load_prime_table(args.cache)
        if table.limit < needed_limit:
            raise ParameterError(
                f"cached sieve limit {table.limit} below required {needed_limit}"
            )
        return table
    return build_prime_table(max(needed_limit, 2))


def _dense(spec, limit: int, table) -> ArithFn:
    f = parse_function_spec(spec, limit, table)
    return to_arith(f, limit, table) if isinstance(f, MultFn) else f


def _multfn(spec, limit: int, table, command: str) -> MultFn:
    f = parse_function_spec(spec, limit, table)
    if not isinstance(f, MultFn):
        raise ParameterError(f"{command} needs a multiplicative function spec")
    return f


def _fuzz_rng(args: argparse.Namespace) -> np.random.Generator:
    if args.seed is None:
        raise ConfigError(f"{args.command} requires --seed")
    if args.trials < 0:
        raise ConfigError(f"trials must be >= 0, got {args.trials}")
    return np.random.default_rng(args.seed)


def _report_obj(rep) -> dict:
    return {
        "f_id": rep.f_id,
        "x": rep.x,
        "q": rep.q,
        "a": rep.a,
        "progression_sum": rep.progression_sum,
        "coprime_sum": rep.coprime_sum,
        "xi_correction": rep.xi_correction,
        "delta": rep.delta,
        "abs_delta": abs(rep.delta),
        "mode": rep.mode,
    }


# --- command handlers ------------------------------------------------------


def _cmd_sieve_cache(args):
    table = build_prime_table(args.limit)
    save_prime_table(table, args.out)
    return {"limit": table.limit}, table


def _cmd_delta(args):
    table = _get_table(args, int(args.x))
    fd = _dense(args.f, int(args.x), table)
    rep = delta(fd, args.x, args.q, args.a)
    _write_json(args.out, _report_obj(rep))
    return {"abs_delta": abs(rep.delta)}, table


def _cmd_delta_xi(args):
    table = _get_table(args, int(args.x))
    xi = _parse_xi(args.xi, table)
    fd = _dense(args.f, int(args.x), table)
    rep = delta_xi(fd, args.x, args.q, args.a, xi)
    _write_json(args.out, _report_obj(rep))
    return {"abs_delta": abs(rep.delta)}, table


def _cmd_bv_sum(args):
    table = _get_table(args, int(args.x))
    xi = _parse_xi(args.xi, table) if args.xi else None
    fd = _dense(args.f, int(args.x), table)
    rep = bv_sum(fd, args.x, args.Q, xi, threads=args.threads)
    _write_csv(args.out, ["q", "a_max", "abs_delta"], rep.per_q)
    return {"Q": rep.Q, "total": rep.total}, table


def _cmd_sw_profile(args):
    limit = int(max(args.X_grid))
    table = _get_table(args, limit)
    fd = _dense(args.f, limit, table)
    rows = sw_profile(fd, args.q, args.a, args.X_grid, args.A)
    _write_csv(args.out, ["X", "abs_delta", "normalized"], rows)
    return {"points": len(rows)}, table


def _cmd_partial_summation(args):
    table = _get_table(args, int(args.x))
    xi = _parse_xi(args.xi, table) if args.xi else trivial_set()
    fd = _dense(args.f, int(args.x), table)
    resid = partial_summation_check(fd, args.x, args.X, args.q, args.a, xi)
    _write_json(args.out, {"residual": resid})
    return {"residual": resid}, table


def _cmd_large_sieve_fuzz(args):
    rng = _fuzz_rng(args)
    if args.N_max < 1 or args.Q_max < 1:
        raise ConfigError(f"N-max and Q-max must be >= 1, got {args.N_max}, {args.Q_max}")
    table = _get_table(args, 2)
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        N = int(rng.integers(1, args.N_max + 1))
        Q = int(rng.integers(1, args.Q_max + 1))
        coeffs = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
        lhs, rhs, ratio = large_sieve_check(coeffs, Q)
        worst = max(worst, ratio)
        rows.append((trial, N, Q, lhs, rhs, ratio))
    _write_csv(args.out, ["trial", "N", "Q", "lhs", "rhs", "ratio"], rows)
    return {"trials": len(rows), "worst_ratio": worst}, table


def _cmd_smooth_split(args):
    table = _get_table(args, args.n)
    s = smooth_factor_split(args.n, args.V0, table)
    obj = {"n": s.n, "u": s.u, "v": s.v, "P_plus_u": s.P_plus_u, "P_minus_v": s.P_minus_v}
    _write_json(args.out, obj)
    return obj, table


def _cmd_assembly_check(args):
    X, y = args.X, args.y
    table = _get_table(args, int(X))
    psi = _parse_xi(args.psi, table).members[0] if args.psi else enumerate_characters(1)[0]
    f = _multfn(args.f, int(X), table, args.command)
    if not y > 0:
        raise ParameterError(f"y={y} must be > 0")
    V0 = math.sqrt(X / y)
    assembled = split_sum_assemble(f, X, y, V0, psi, table, threads=args.threads)
    twisted = twisted_sum(to_arith(f, int(X), table), X, psi)
    resid = abs(assembled - twisted)
    _write_json(
        args.out,
        {"assembled": assembled, "twisted_sum": twisted, "residual": resid, "V0": V0},
    )
    return {"residual": resid}, table


def _cmd_dyadic_cells(args):
    table = _get_table(args, 2)
    cells = dyadic_cells(args.X, args.y, args.V0)
    rows = [(c.U, c.V, c.P_plus, c.P_minus) for c in cells]
    _write_csv(args.out, ["U", "V", "P_plus", "P_minus"], rows)
    return {"cells": len(rows)}, table


def _cmd_bilinear_fuzz(args):
    rng = _fuzz_rng(args)
    U, V, R = args.U, args.V, args.R
    if U < 1 or V < 1:  # before the draws, which take U and V as sizes
        raise ParameterError(f"U and V must be >= 1, got U={U}, V={V}")
    table = _get_table(args, 2)
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        a = rng.uniform(-1, 1, U) + 1j * rng.uniform(-1, 1, U)
        a /= np.maximum(1, np.abs(a))
        b = rng.uniform(-1, 1, V) + 1j * rng.uniform(-1, 1, V)
        b /= np.maximum(1, np.abs(b))
        lhs, bound, ratio = bilinear_ls_eval(a, b, U, V, R)
        worst = max(worst, ratio)
        rows.append((trial, U, V, R, lhs, bound, ratio))
    _write_csv(args.out, ["trial", "U", "V", "R", "lhs", "bound", "ratio"], rows)
    return {"trials": len(rows), "worst_ratio": worst}, table


def _cmd_truncation_check(args):
    table = _get_table(args, int(args.x))
    xi = _parse_xi(args.xi, table) if args.xi else trivial_set()
    f = _multfn(args.f, int(args.x), table, args.command)
    g = _multfn(args.g, int(args.x), table, args.command)
    resid = truncation_difference_check(f, g, args.x, args.C, xi, args.q, args.a, table)
    _write_json(args.out, {"residual": resid})
    return {"residual": resid}, table


def _cmd_counterexample(args):
    x = int(args.x)
    table = _get_table(args, x)
    spec = plan_counterexample(x, args.gamma, args.Q, table)
    f = counterexample_multfn(spec)
    bound = identity_validity_bound(spec)
    pointwise = pointwise_identity_check(spec, range(1, bound + 1), table, f)
    extension = range_extension_check(spec, table)
    rep = lower_bound_report(spec, table)
    summary = {
        "x": spec.x,
        "gamma": spec.gamma,
        "Q": spec.Q,
        "y": spec.y,
        "z": spec.z,
        "scriptP_size": len(spec.script_P),
        "pointwise_identity_max_residual": pointwise,
        "pointwise_identity_range": [1, bound],
        "range_extension_all_equal": all(extension.values()),
        "bv_partial_sum": rep.bv_partial_sum,
        "normalizer": rep.normalizer,
        "ratio": rep.ratio,
        "scriptP_density": rep.scriptP_density,
    }
    _write_json(args.out, summary)
    outputs = []
    if args.csv:
        _write_csv(
            args.csv,
            ["q", "delta_abs", "phi_q", "pi_diff", "scriptP_term"],
            rep.rows,
        )
        outputs.append(args.csv)
    if args.dump_f:
        save_pp_table(f, x, table, args.dump_f)
        outputs.append(args.dump_f)
    return {"ratio": rep.ratio, "extra_outputs": outputs}, table


def _cmd_lambda_check(args):
    limit = args.limit
    table = _get_table(args, limit)
    f = _multfn(args.f, limit, table, args.command)
    lam = lambda_seq(f, limit, table)
    g = inverse(f, limit)
    twisted = log_twist(to_arith(f, limit, table), 1.0)
    rhs = dirichlet_convolve(to_arith(g, limit, table), twisted, limit).values
    del twisted
    # lambda is 0 off the prime powers, where |0 - rhs| = |rhs|: the dense max, split in two
    on = np.max(np.abs(lam.pp_values - rhs[lam.prime_powers]), initial=0.0)
    rhs[lam.prime_powers] = 0
    resid = float(np.max([on, np.max(np.abs(rhs))]))
    lam_g = lambda_seq(g, limit, table)
    neg = float(np.max(np.abs(lam.pp_values + lam_g.pp_values), initial=0.0))
    obj = {
        "lambda_identity_max_residual": resid,
        "negation_max_residual": neg,
        "class_c": lam.is_class_c,
        "first_violation": lam.first_violation,
    }
    _write_json(args.out, obj)
    return obj, table


def _cmd_inverse_check(args):
    limit = args.limit
    table = _get_table(args, limit)
    f = _multfn(args.f, limit, table, args.command)
    fd = to_arith(f, limit, table)
    gd = to_arith(inverse(f, limit), limit, table)
    conv = dirichlet_convolve(fd, gd, limit).values
    del fd, gd
    # the identity is 1 at n = 1 and 0 elsewhere, where |conv - 0| = |conv|
    at_one = abs(conv[1] - 1)
    conv[1] = 0
    resid = float(np.max([at_one, np.max(np.abs(conv))]))
    _write_json(args.out, {"max_residual": resid})
    return {"max_residual": resid}, table


def _cmd_companion_check(args):
    limit = args.limit
    table = _get_table(args, limit)
    f = _multfn(args.f, limit, table, args.command)
    fstar, g = companion_split(f, limit)
    gd = to_arith(g, limit, table)
    gpp = prime_power_values(g, limit, table)
    worst_pk = float(np.max(np.hypot(gpp.real, gpp.imag), initial=0.0))
    # g's values, like fstar's below, go after their last reader; the p^k are the table's
    del g, gpp
    off = to_arith(powerful(limit), limit, table).values == 0
    off_powerful = float(np.max(np.abs(gd.values), where=off, initial=0.0))
    del off
    # g lives on the powerful numbers: the convolution reads its support alone
    gs = Support.of(gd)
    del gd
    fstar_d = to_arith(fstar, limit, table)
    del fstar
    conv = dirichlet_convolve(gs, fstar_d, limit).values
    del gs, fstar_d
    fd = to_arith(f, limit, table).values
    conv = conv.astype(np.result_type(conv, fd), copy=False)
    conv -= fd
    del fd
    resid = float(np.max(np.abs(conv)))
    obj = {
        "max_residual": resid,
        "off_powerful_max": off_powerful,
        "max_prime_power_value": worst_pk,
    }
    _write_json(args.out, obj)
    return obj, table


# name -> (handler, keys): the only list of a command's flags; "?" marks optional
_COMMANDS = {
    "sieve-cache": (_cmd_sieve_cache, ["limit"]),
    "delta": (_cmd_delta, ["f", "x", "q", "a"]),
    "delta-xi": (_cmd_delta_xi, ["f", "x", "q", "a", "xi"]),
    "bv-sum": (_cmd_bv_sum, ["f", "x", "Q", "xi?"]),
    "sw-profile": (_cmd_sw_profile, ["f", "q", "a", "X-grid", "A"]),
    "partial-summation": (_cmd_partial_summation, ["f", "x", "X", "q", "a", "xi?"]),
    "large-sieve-fuzz": (_cmd_large_sieve_fuzz, ["trials", "N-max", "Q-max"]),
    "smooth-split": (_cmd_smooth_split, ["n", "V0"]),
    "assembly-check": (_cmd_assembly_check, ["f", "X", "y", "psi?"]),
    "dyadic-cells": (_cmd_dyadic_cells, ["X", "y", "V0"]),
    "bilinear-fuzz": (_cmd_bilinear_fuzz, ["U", "V", "R", "trials"]),
    "truncation-check": (_cmd_truncation_check, ["f", "g", "x", "C", "q", "a", "xi?"]),
    "counterexample": (_cmd_counterexample, ["x", "gamma", "Q?", "dump-f?"]),
    "lambda-check": (_cmd_lambda_check, ["f", "limit"]),
    "inverse-check": (_cmd_inverse_check, ["f", "limit"]),
    "companion-check": (_cmd_companion_check, ["f", "limit"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlab",
        description="experiments on multiplicative functions in arithmetic progressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file supplying parameters")
        p.add_argument("--cache", help="sieve cache file (from sieve-cache)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="primary output path")
        if name == "counterexample":
            p.add_argument("--csv", default=None, help="per-q rows CSV path")
        for key in keys:
            # kept as given here; _resolve types them after merging --config,
            # so both sources go through the same checks
            p.add_argument("--" + key.rstrip("?"), default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, keys = _COMMANDS[args.command]
    # echoed as given: _resolve replaces the values on args with typed ones
    config = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    start = time.perf_counter()
    try:
        _resolve(args, keys)
        _check_outputs(args)
        extra, table = handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    wall = time.perf_counter() - start
    outputs = [args.out] + list(extra.pop("extra_outputs", []))
    manifest = {
        "command": args.command,
        "config": config,
        "version": __version__,
        "sieve_limit": table.limit,
        "wall_time_s": wall,
        "results": extra,
        "outputs": [{"path": p, "sha256": _sha256(p)} for p in outputs],
    }
    print(_jdump(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
