"""Command-line interface.

Every operation is exposed as a subcommand with deterministic output in
json, csv, or text form.  Exit codes: 0 success, 2 precision exhaustion,
3 invalid input, 4 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .balls import (
    CertificationError,
    DEFAULT_PREC,
    MAX_PREC,
    PrecisionError,
    RBall,
)
from .charpoly import (
    compute_roots,
    cross_k_monotonicity,
    dominance_constants,
    profile_from_json,
    profile_to_json,
)
from .intpoly import IntPoly
from .linforms import MatveevInstance, matveev_exponent, weil_height
from .reduction import BDInstance, bd_iterate
from .sequence import kfib, kfib_window
from .solvers import (
    reference_row_comparison,
    k4_pipeline,
    pm_intersection,
    power_scan,
    repeats_scan,
)

MIN_PREC = 64
# Python caps an int's decimal digits at 4300 but not a decimal's exponent,
# and Fraction("1e10000000") builds a 33-million-bit power of ten
MAX_DECIMAL_EXPONENT = 4300


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative-leading ranges like -225..-1 pass as positionals
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+\.\.-?\d+$")

    def error(self, message):
        raise UsageError(message)


def _ball_out(b: RBall) -> dict:
    return {"mid": b.mid_str(30), "radius_exp": b.radius_exp(30)}


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"range must look like 'LO..HI', got {text!r}") from exc
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _decimal_fraction(text: str) -> Fraction:
    """A decimal string -> exact rational; its exponent must be at most
    MAX_DECIMAL_EXPONENT in size."""
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if exp and abs(int(exp.group(1))) > MAX_DECIMAL_EXPONENT:
        raise UsageError(f"{text[:40]!r}: decimal exponent over the limit of "
                         f"{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise UsageError(f"bad decimal {text!r}") from exc


def _decimal_ball(value, prec: int, exact: bool) -> RBall:
    """Numeric JSON field -> ball.  Strings are decimals; with exact=False a
    string carries one trailing-digit ulp of uncertainty."""
    if isinstance(value, bool):
        raise UsageError("expected a number, got a boolean")
    if isinstance(value, int):
        return RBall.from_int(value, prec)
    if isinstance(value, float):
        value = repr(value)
    if not isinstance(value, str):
        raise UsageError(f"expected number or decimal string, got {type(value).__name__}")
    frac = _decimal_fraction(value)
    if exact:
        return RBall.from_fraction(frac, prec)
    mantissa = value.lower().split("e")[0]
    digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
    exp10 = int(value.lower().split("e")[1]) if "e" in value.lower() else 0
    ulp = Fraction(1, 10 ** digits) * Fraction(10) ** exp10
    return RBall.from_midrad(frac, ulp, prec)


def _json_int(value) -> int:
    """An integer field of an input document: an int, a number without a
    fractional part, or an integer string.  Booleans are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _json_list(value, key: str) -> list:
    """An array field of an input document: a string or object is refused."""
    if not isinstance(value, list):
        raise UsageError(f"'{key}' must be a JSON array, got {json.dumps(value)}")
    return value


def _json_flag(doc: dict, key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise UsageError(f"'{key}' must be true or false, got {json.dumps(value)}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return doc


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (payload dict, csv rows or None,
# text lines)
# ---------------------------------------------------------------------------

def _cmd_kfib(args, prec, cache_dir):
    value = kfib(args.k, args.n)
    payload = {"k": args.k, "n": args.n, "value": value}
    return payload, [["k", "n", "value"], [args.k, args.n, value]], [str(value)]


def _cmd_window(args, prec, cache_dir):
    win = kfib_window(args.k, args.lo, args.hi)
    payload = {"k": win.k, "lo": win.lo, "hi": win.hi, "values": list(win.values)}
    rows = [["n", "value"]] + [[n, v] for n, v in zip(range(win.lo, win.hi + 1), win.values)]
    text = [f"{n}\t{v}" for n, v in zip(range(win.lo, win.hi + 1), win.values)]
    return payload, rows, text


def _profile_with_cache(k, prec, cache_dir):
    if cache_dir:
        path = Path(cache_dir) / f"roots_k{k}_p{prec}.json"
        if path.exists():
            doc = json.loads(path.read_text(encoding="utf-8"))
            profile = profile_from_json(doc)
            # a profile at any other precision, doubled or edited, is recomputed
            if profile.k == k and profile.precision == prec:
                return profile
        profile = compute_roots(k, prec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(profile_to_json(profile), indent=2) + "\n",
                        encoding="utf-8")
        return profile
    return compute_roots(k, prec)


def _cmd_roots(args, prec, cache_dir):
    profile = _profile_with_cache(args.k, prec, cache_dir)
    payload = profile_to_json(profile)
    rows = [["index", "re_mid", "im_mid", "modulus_mid", "real"]]
    text = [f"roots of the order-{args.k} characteristic polynomial "
            f"({prec} bits, separation {'certified' if profile.separation_certified else 'OPEN'})"]
    for i, (root, mod, flag) in enumerate(zip(profile.roots, profile.moduli,
                                              profile.real_flags)):
        re_s = root.real().mid_str(25)
        im_s = root.imag().mid_str(25)
        rows.append([i + 1, re_s, im_s, mod.mid_str(25), flag])
        text.append(f"  alpha_{i+1} = {re_s} + {im_s} i   |.| = {mod.mid_str(25)}")
    return payload, rows, text


def _cmd_constants(args, prec, cache_dir):
    consts = dominance_constants(args.k, prec)
    payload = {"k": args.k, "c1": _ball_out(consts.c1), "delta": _ball_out(consts.delta)}
    text = [f"c1 = {consts.c1.mid_str(15)}", f"delta = {consts.delta.mid_str(15)}"]
    rows = [["name", "mid", "radius_exp"],
            ["c1", consts.c1.mid_str(30), consts.c1.radius_exp()],
            ["delta", consts.delta.mid_str(30), consts.delta.radius_exp()]]
    return payload, rows, text


def _cmd_order_check(args, prec, cache_dir):
    report = cross_k_monotonicity(args.k_max, prec)
    payload = {
        "k_max": report.k_max,
        "all_certified": report.all_certified,
        "assertions": [{"name": a.name, "certified": a.certified, "note": a.note}
                       for a in report.assertions],
    }
    rows = [["name", "certified", "note"]] + \
        [[a.name, a.certified, a.note] for a in report.assertions]
    text = [f"{'ok ' if a.certified else 'FAIL'} {a.name}" for a in report.assertions]
    text.append(f"all certified: {report.all_certified}")
    return payload, rows, text


def _cmd_height(args, prec, cache_dir):
    doc = _load_json(args.polyfile)
    if "coeffs" not in doc:
        raise UsageError("poly file needs a 'coeffs' list, lowest degree first")
    try:
        poly = IntPoly(tuple(_json_int(c) for c in _json_list(doc["coeffs"], "coeffs")))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad coefficients: {exc}") from exc
    res = weil_height(poly, prec)
    payload = {"poly": list(poly.coeffs), "degree": res.degree,
               "height": _ball_out(res.value)}
    text = [f"h = {res.value.mid_str(25)}"]
    rows = [["degree", "height_mid", "radius_exp"],
            [res.degree, res.value.mid_str(30), res.value.radius_exp()]]
    return payload, rows, text


def _cmd_matveev(args, prec, cache_dir):
    doc = _load_json(args.instance)
    try:
        log_floors = tuple(_decimal_ball(v, prec, exact=True)
                           for v in _json_list(doc.get("log_gamma_abs", []), "log_gamma_abs"))
        inst = MatveevInstance(
            t=_json_int(doc["t"]),
            D=_json_int(doc["D"]),
            B=_decimal_ball(doc["B"], prec, exact=_json_flag(doc, "exact", True)),
            A=tuple(_decimal_fraction(str(a)) for a in _json_list(doc["A"], "A")),
            log_gamma_abs=log_floors,
        )
        exponent = matveev_exponent(inst, prec)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad instance: {exc}") from exc
    payload = {"t": inst.t, "D": inst.D, "exponent": _ball_out(exponent)}
    text = [f"exponent = {exponent.mid_str(25)}"]
    rows = [["exponent_mid", "radius_exp"],
            [exponent.mid_str(30), exponent.radius_exp()]]
    return payload, rows, text


def _cmd_reduce(args, prec, cache_dir):
    doc = _load_json(args.instance)
    exact = _json_flag(doc, "exact", False)
    try:
        inst = BDInstance(
            kappa=_decimal_ball(doc["kappa"], prec, exact=exact),
            mu=_decimal_ball(doc["mu"], prec, exact=exact),
            A=_decimal_ball(doc["A"], prec, exact=True),
            B=_decimal_ball(doc["B"], prec, exact=True),
            M=_json_int(doc["M"]),
        )
        inst.validate()
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"bad instance: {exc}") from exc
    min_q = _json_int(doc["min_q_first"]) if "min_q_first" in doc else None
    trace = bd_iterate(inst, prec, min_q_first=min_q)
    payload = {"trace": [_outcome_out(o) for o in trace]}
    rows = [["M", "q", "epsilon_lower", "new_bound", "status"]]
    text = []
    for o in trace:
        eps = str(o.epsilon_lower.lower()) if o.epsilon_lower is not None else ""
        rows.append([o.M, o.q, eps, o.new_bound, o.status])
        text.append(f"M={o.M} q={o.q} eps_lower={eps} new_bound={o.new_bound} {o.status}")
    return payload, rows, text


def _outcome_out(o) -> dict:
    return {
        "M": o.M,
        "q": o.q,
        "epsilon_lower": _ball_out(o.epsilon_lower) if o.epsilon_lower is not None else None,
        "new_bound": o.new_bound,
        "status": o.status,
    }


def _cmd_scan(args, prec, cache_dir):
    result = repeats_scan(args.k, args.lo, args.hi, repeats_only=args.repeats_only)
    payload = {"k": result.k, "lo": result.lo, "hi": result.hi,
               "repeats_only": result.repeats_only,
               "classes": {str(c): list(idx) for c, idx in result.classes.items()}}
    rows = [["abs_value", "indices"]] + \
        [[c, " ".join(map(str, idx))] for c, idx in result.classes.items()]
    text = [f"|c| = {c}: n in {list(idx)}" for c, idx in result.classes.items()]
    if args.k == 4 and args.repeats_only and args.lo <= -15 and args.hi >= 0:
        note = reference_row_comparison(result)
        payload["reference_note"] = note
        text.append(note)
        rows.append(["note", note])
    return payload, rows, text


def _cmd_solve_pm(args, prec, cache_dir):
    result = pm_intersection(args.k, args.l, _parse_range(args.m_range),
                             _parse_range(args.n_range))
    payload = {"k": result.k, "l": result.l,
               "m_range": list(result.m_range), "n_range": list(result.n_range),
               "value_classes": [abs(c) for c in result.value_classes()],
               "matches": [list(t) for t in result.matches]}
    rows = [["m", "n", "c", "sign"]] + [list(t) for t in result.matches]
    text = [f"m={m} n={n} c={c} sign={s:+d}" for m, n, c, s in result.matches]
    return payload, rows, text


def _cmd_powers(args, prec, cache_dir):
    result = power_scan(args.k, args.lo, args.hi)
    payload = {"k": result.k, "lo": result.lo, "hi": result.hi,
               "nontrivial": [list(t) for t in result.nontrivial],
               "trivial": [list(t) for t in result.trivial]}
    rows = [["n", "x", "q"]] + [list(t) for t in result.nontrivial]
    text = [f"F_{n} = {x}^{q}" for n, x, q in result.nontrivial]
    text += [f"F_{n} = {v} (trivial)" for n, v in result.trivial]
    return payload, rows, text


def _cmd_pipeline(args, prec, cache_dir):
    report = k4_pipeline(prec)
    payload = {
        "precision_bits": report.precision,
        "certified": report.certified,
        "case2_bounds": list(report.case2_bounds),
        "negative_scan_classes": {str(c): list(idx)
                                  for c, idx in report.negative_scan.classes.items()},
        "matveev_coefficient": _ball_out(report.matveev_coefficient),
        "matveev_bound": report.matveev_bound,
        "sound_bound_nu": report.sound_bound_nu,
        "reduction_trace": [_outcome_out(o) for o in report.reduction_trace],
        "final_search_bound": report.final_search_bound,
        "solutions": [list(t) for t in report.solutions.matches],
        "solution_value_classes": list(report.solutions.value_classes()),
        "max_abs_index": report.max_abs_index,
        "reference_max_index": report.reference_max_index,
        "certificates": [{"name": c.name, "ok": c.ok, "lhs": c.lhs,
                          "relation": c.relation, "rhs": c.rhs, "note": c.note}
                         for c in report.certificates],
        "notes": list(report.notes),
    }
    rows = [["certificate", "ok", "note"]] + \
        [[c.name, c.ok, c.note] for c in report.certificates]
    text = [f"certified: {report.certified}",
            f"case2 bounds (d, m, n): {report.case2_bounds}",
            f"matveev bound on |n|: {report.matveev_bound}",
            f"final search bound: {report.final_search_bound}",
            f"max |index| among solutions: {report.max_abs_index}"]
    text += [f"  {'ok ' if c.ok else 'FAIL'} {c.name} {c.note}" for c in report.certificates]
    text += [f"note: {n}" for n in report.notes]
    return payload, rows, text


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_globals(parser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--precision-bits", type=int, default=default)
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS if suppress else "text")
    parser.add_argument("--cache-dir", default=default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="negafib",
                     description="k-generalized Fibonacci numbers over Z with "
                                 "certified analytic machinery")
    _add_globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn):
        p = sub.add_parser(name)
        _add_globals(p, suppress=True)  # accepted after the subcommand too
        p.set_defaults(fn=fn)
        return p

    p = cmd("kfib", _cmd_kfib)
    p.add_argument("k", type=int); p.add_argument("n", type=int)
    p = cmd("window", _cmd_window)
    p.add_argument("k", type=int); p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p = cmd("roots", _cmd_roots)
    p.add_argument("k", type=int)
    p = cmd("constants", _cmd_constants)
    p.add_argument("k", type=int)
    p = cmd("order-check", _cmd_order_check)
    p.add_argument("k_max", type=int)
    p = cmd("height", _cmd_height)
    p.add_argument("polyfile")
    p = cmd("matveev", _cmd_matveev)
    p.add_argument("instance")
    p = cmd("reduce", _cmd_reduce)
    p.add_argument("instance")
    p = cmd("scan", _cmd_scan)
    p.add_argument("k", type=int); p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--repeats-only", action="store_true")
    p = cmd("solve-pm", _cmd_solve_pm)
    p.add_argument("k", type=int); p.add_argument("l", type=int)
    p.add_argument("m_range"); p.add_argument("n_range")
    p = cmd("powers", _cmd_powers)
    p.add_argument("k", type=int); p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    cmd("pipeline-k4", _cmd_pipeline)
    return parser


def _emit(payload, rows, text, fmt, out) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        out.write(buf.getvalue())
    else:
        for line in text:
            out.write(line + "\n")


def run(argv, out=None, err=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        prec = args.precision_bits
        if prec is None:
            env = os.environ.get("NEGAFIB_PRECISION_BITS")
            prec = int(env) if env else DEFAULT_PREC
        if not (MIN_PREC <= prec <= MAX_PREC):
            raise UsageError(f"precision must be in [{MIN_PREC}, {MAX_PREC}]")
        cache_dir = args.cache_dir
        if cache_dir is None:
            cache_dir = os.environ.get("NEGAFIB_CACHE_DIR") or None
        payload, rows, text = args.fn(args, prec, cache_dir)
        _emit(payload, rows, text, args.format, out)
        return 0
    except (ValueError, TypeError, KeyError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 3
    except PrecisionError as exc:
        err.write(f"precision exhausted: {exc}\n")
        return 2
    except CertificationError as exc:
        err.write(f"certification failed: {exc}\n")
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
