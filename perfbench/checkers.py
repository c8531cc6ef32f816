"""Checks of negafib's outputs against refmath and mathematical facts.

Every function takes what the program produced, as parsed JSON or plain
numbers, and returns a list of problems; an empty list means the output is
correct.  None of them imports negafib.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from fractions import Fraction

import refmath

# constants of the replayed two-pass reduction (printed in the source paper)
REPLAY_A = Fraction("9.14")
REPLAY_B = Fraction("1.056")
WIDE_BOX = 2000  # brute-force box far beyond the pipeline's search box
K4_MIXED_SOLUTIONS = 13
K4_MAX_ABS_INDEX = 21
INT_STR_DIGITS = 4300  # Python's default int <-> str conversion limit


@contextlib.contextmanager
def _unlimited_int_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _mpf(x: Fraction):
    import mpmath
    return mpmath.mpf(x.numerator) / x.denominator


def parse_int(text: str) -> int:
    with _unlimited_int_digits():
        return int(text.strip())


# ---------------------------------------------------------------------------
# root enclosures
# ---------------------------------------------------------------------------

def _interval(doc: dict):
    return refmath.decode_endpoint(doc["exact_lo"]), refmath.decode_endpoint(doc["exact_hi"])


def boxes(roots_doc: dict) -> list:
    """(re_lo, re_hi, im_lo, im_hi) of each published root enclosure."""
    return [_interval(r["re"]) + _interval(r["im"]) for r in roots_doc["roots"]]


def _where(box, root, err):
    """'in', 'out', or 'edge' for a reference root known to within err."""
    re_lo, re_hi, im_lo, im_hi = box
    x, y = root
    if im_lo == im_hi == 0:  # a real enclosure
        inside_im, outside_im = abs(y) <= err, abs(y) > err
    else:
        inside_im = im_lo < y - err and y + err < im_hi
        outside_im = y + err < im_lo or y - err > im_hi
    inside_re = re_lo < x - err and x + err < re_hi
    outside_re = x + err < re_lo or x - err > re_hi
    if inside_re and inside_im:
        return "in"
    if outside_re or outside_im:
        return "out"
    return "edge"


def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def _isub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _iadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sq_modulus(root):
    return root[0] ** 2 + root[1] ** 2


def check_roots(doc: dict) -> list:
    """Enclosures of the roots of T_k, as `roots K --format json` prints them."""
    k, bits = doc["k"], doc["precision_bits"]
    bs = boxes(doc)
    problems = []
    if len(bs) != k or len(doc["real_flags"]) != k:
        return [f"k={k}: {len(bs)} enclosures for a degree-{k} polynomial"]
    dps = refmath.dps_for_bits(bits)
    refs, err = refmath.polyroots(k, dps)

    owner = {}  # reference root -> the one box holding it
    for i, box in enumerate(bs):
        where = [_where(box, r, err) for r in refs]
        if "edge" in where:
            problems.append(f"k={k}: a reference root sits on the edge of box {i}")
        held = [j for j, w in enumerate(where) if w == "in"]
        if len(held) != 1:
            problems.append(f"k={k}: box {i} holds {len(held)} roots")
        for j in held:
            if j in owner:
                problems.append(f"k={k}: root {j} lies in boxes {owner[j]} and {i}")
            owner[j] = i
    if problems or len(owner) != k:
        return problems or [f"k={k}: {k - len(owner)} roots in no box"]
    by_box = {i: refs[j] for j, i in owner.items()}

    for i, (box, flag) in enumerate(zip(bs, doc["real_flags"])):
        real_box = box[2] == box[3] == 0
        if flag != real_box:
            problems.append(f"k={k}: real flag of box {i} disagrees with its enclosure")
        if real_box and not refmath.sign_change(k, box[0], box[1]):
            problems.append(f"k={k}: T_k has no sign change on real box {i}")

    total_re, total_im = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    prod_re, prod_im = (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))
    for re_lo, re_hi, im_lo, im_hi in bs:
        re, im = (re_lo, re_hi), (im_lo, im_hi)
        total_re, total_im = _iadd(total_re, re), _iadd(total_im, im)
        prod_re, prod_im = (_isub(_imul(prod_re, re), _imul(prod_im, im)),
                            _iadd(_imul(prod_re, im), _imul(prod_im, re)))
    if not (total_re[0] <= 1 <= total_re[1] and total_im[0] <= 0 <= total_im[1]):
        problems.append(f"k={k}: the enclosures' sum does not contain 1")
    sign = (-1) ** (k + 1)
    if not (prod_re[0] <= sign <= prod_re[1] and prod_im[0] <= 0 <= prod_im[1]):
        problems.append(f"k={k}: the enclosures' product does not contain {sign}")

    tol = 8 * err
    mods = [_sq_modulus(by_box[i]) for i in range(k)]
    for i in range(k - 1):
        if mods[i + 1] > mods[i] + tol:
            problems.append(f"k={k}: modulus increases from root {i} to {i + 1}")

    if k % 2 == 0:
        last = bs[-1]
        if not (last[2] == last[3] == 0 and last[1] < 0):
            problems.append(f"k={k}: last root not published as real and negative")
        smallest = _sq_modulus(by_box[k - 1])
        if any(smallest + tol >= mods[i] for i in range(k - 1)):
            problems.append(f"k={k}: last root is not strictly the smallest")
        lam = refmath.aux_root(k, dps)
        if abs(lam * by_box[k - 1][0] + 1) > tol:
            problems.append(f"k={k}: lambda * alpha_k differs from -1")
    return problems


def enclosure_bits(docs) -> float:
    """min of -log2(radius) over every enclosure with a nonzero radius."""
    best = math.inf
    for doc in docs:
        for re_lo, re_hi, im_lo, im_hi in boxes(doc):
            for lo, hi in ((re_lo, re_hi), (im_lo, im_hi)):
                if hi > lo:
                    best = min(best, refmath.neg_log2((hi - lo) / 2))
    return best


def _ball_mid_rad(doc: dict):
    e = doc["radius_exp"]  # None for a ball of radius 0
    return Fraction(doc["mid"]), Fraction(0) if e is None else Fraction(10) ** e


def _ref_sorted_roots(k: int, dps: int):
    refs, _err = refmath.polyroots(k, dps)
    return sorted(refs, key=_sq_modulus, reverse=True)


def check_constants(doc: dict) -> list:
    """c1 and delta of `constants K`, recomputed from reference roots."""
    import mpmath
    k = doc["k"]
    problems = []
    with mpmath.workdps(60):
        roots = [mpmath.mpc(_mpf(x), _mpf(y))
                 for x, y in _ref_sorted_roots(k, 60)]
        mods = [abs(r) for r in roots]
        g = [abs((r - 1) / ((k + 1) * r - 2 * k)) for r in roots]
        c1 = g[0] + sum(g[j] / mods[j] for j in range(1, k - 1))
        delta = mpmath.log(mods[k - 2]) / mpmath.log(mods[k - 1])
        for name, ref in (("c1", c1), ("delta", delta)):
            mid, rad = _ball_mid_rad(doc[name])
            if abs(_mpf(mid) - ref) > _mpf(rad) + mpmath.mpf(10) ** -40:
                problems.append(f"k={k}: {name} = {doc[name]['mid']} disagrees with {ref}")
        if not 0 < delta < 1:
            problems.append(f"k={k}: delta outside (0, 1)")
    return problems


def check_order_check(doc: dict) -> list:
    """`order-check KMAX`: every assertion certified, and each one true for
    reference roots."""
    k_max = doc["k_max"]
    orders = range(2, k_max + 1)
    roots = {k: _ref_sorted_roots(k, 40) for k in orders}
    dominant = {k: roots[k][0][0] for k in orders}
    smallest = {k: roots[k][-1][0] for k in orders if k % 2 == 0}
    expected = {}
    for a in smallest:
        for b in smallest:
            if a < b:
                expected[f"smallest_root_decreases[{a}<{b}]"] = smallest[b] < smallest[a]
    for a in orders:
        for b in orders:
            if a < b:
                expected[f"dominant_root_increases[{a}<{b}]"] = dominant[b] > dominant[a]
    for order, alpha in smallest.items():
        xi = -1 / alpha
        for k in orders:
            holds = abs(dominant[k] - xi) < Fraction(1, 10**30) if (order, k) == (2, 2) \
                else dominant[k] > xi
            expected[f"dominant[{k}]>=xi[{order}]"] = holds
    got = {a["name"]: a["certified"] for a in doc["assertions"]}
    problems = []
    if set(got) != set(expected):
        problems.append(f"order-check {k_max}: assertion names differ from the expected set")
    problems += [f"order-check {k_max}: {name} is {got.get(name)}, reference says {v}"
                 for name, v in expected.items() if got.get(name) is not v]
    if doc["all_certified"] is not all(got.values()):
        problems.append(f"order-check {k_max}: all_certified disagrees with the assertions")
    return problems


def check_binet(k: int, n: int, lo: Fraction, hi: Fraction) -> list:
    exact = refmath.value(k, n)
    problems = []
    if not hi - lo < 1:
        problems.append(f"binet({k}, {n}): radius not below 1/2")
    if not lo <= exact <= hi:
        problems.append(f"binet({k}, {n}): [{float(lo)}, {float(hi)}] misses {exact}")
    return problems


def check_smallest_root(k: int, bits: int, ok: bool, lam_lo: Fraction,
                        lam_hi: Fraction) -> list:
    """smallest_root_check(k): certified, and its lambda ball holds the root
    of x^(k+1) - 2x - 1 in (1, 2)."""
    dps = refmath.dps_for_bits(bits)
    lam = refmath.aux_root(k, dps)
    margin = Fraction(1, 10**dps)
    problems = [] if ok else [f"smallest_root_check({k}) not certified"]
    if not lam_lo <= lam - margin < lam + margin <= lam_hi:
        problems.append(f"smallest_root_check({k}): lambda ball misses {float(lam)}")
    return problems


# ---------------------------------------------------------------------------
# the order-4 pipeline
# ---------------------------------------------------------------------------

def _pm_matches(vals_k, range_k, vals_l, range_l):
    """(m, n, c, sign) with F_m^(k) = c = sign F_n^(l), by brute force."""
    by_abs = {}
    for n, v in zip(range_l, vals_l):
        by_abs.setdefault(abs(v), []).append((n, v))
    out = []
    for m, vm in zip(range_k, vals_k):
        for n, vn in by_abs.get(abs(vm), ()):
            out.append((m, n, vm, 1 if vm == vn else -1))
    return sorted(out, key=lambda t: (abs(t[2]), t[0], t[1]))


def _repeat_classes(values, indices) -> dict:
    classes = {}
    for n, v in zip(indices, values):
        classes.setdefault(abs(v), []).append(n)
    return {str(c): sorted(idx) for c, idx in sorted(classes.items()) if len(idx) >= 2}


def _bd_bound(q: int, eps: Fraction) -> int:
    import mpmath
    with mpmath.workdps(60):
        a, b = _mpf(REPLAY_A), _mpf(REPLAY_B)
        return int(mpmath.ceil(mpmath.log(a * q / _mpf(eps)) / mpmath.log(b)))


def check_reduction_trace(trace: list) -> list:
    problems = []
    for i, o in enumerate(trace):
        if i and o["M"] != trace[i - 1]["new_bound"]:
            problems.append(f"reduction pass {i}: M is not the previous bound")
        if o["status"] != "reduced":
            continue
        mid, rad = _ball_mid_rad(o["epsilon_lower"])
        if not mid - rad > 0 or not o["q"] > o["M"]:
            problems.append(f"reduction pass {i}: needs epsilon > 0 and q > M")
            continue
        # the bound falls as epsilon grows; epsilon_lower lies in [mid - rad, mid + rad]
        lo, hi = _bd_bound(o["q"], mid + rad), _bd_bound(o["q"], mid - rad)
        if not lo <= o["new_bound"] <= hi:
            problems.append(f"reduction pass {i}: bound {o['new_bound']} is not "
                            f"ceil(log(A q / eps) / log B) in [{lo}, {hi}]")
    return problems


PIPELINE_INVARIANTS = ("case2_bounds", "negative_scan_classes", "matveev_bound",
                       "sound_bound_nu", "final_search_bound", "solutions",
                       "max_abs_index")


def check_pipeline(docs: list) -> list:
    """`pipeline-k4 --format json` at several precisions."""
    problems = []
    wide = range(-WIDE_BOX, WIDE_BOX + 1)
    vals = refmath.window(4, -WIDE_BOX, WIDE_BOX)
    at = dict(zip(wide, vals))
    for doc in docs:
        p = doc["precision_bits"]
        if doc["certified"] is not True:
            problems.append(f"pipeline at {p} bits: not certified")
        box = doc["final_search_bound"]
        if not 0 < box < WIDE_BOX:
            problems.append(f"pipeline at {p} bits: search bound {box} outside (0, {WIDE_BOX})")
            continue
        pos = range(1, box + 1)
        neg = range(-box, 0)
        mixed = _pm_matches([at[m] for m in pos], pos, [at[n] for n in neg], neg)
        got = [tuple(t) for t in doc["solutions"]]
        if got != mixed:
            problems.append(f"pipeline at {p} bits: {len(got)} mixed solutions, "
                            f"brute force finds {len(mixed)}")
        full = range(-box, box + 1)
        everything = _pm_matches([at[m] for m in full], full, [at[n] for n in full], full)
        top = max(max(abs(m), abs(n)) for m, n, _c, _s in everything if m != n)
        if doc["max_abs_index"] != top:
            problems.append(f"pipeline at {p} bits: max |index| {doc['max_abs_index']}, "
                            f"brute force {top}")
        n_min = doc["case2_bounds"][2]
        negs = range(n_min, 1)
        if doc["negative_scan_classes"] != _repeat_classes([at[n] for n in negs], negs):
            problems.append(f"pipeline at {p} bits: negative repeat classes differ")
        problems += [f"pipeline at {p} bits: {msg}"
                     for msg in check_reduction_trace(doc["reduction_trace"])]
    if docs and (len(docs[0]["solutions"]) != K4_MIXED_SOLUTIONS
                 or docs[0]["max_abs_index"] != K4_MAX_ABS_INDEX):
        problems.append("pipeline: expected 13 mixed solutions with max |index| 21")
    outside = [t for t in _pm_matches(vals, wide, vals, wide)
               if t[0] != t[1] and max(abs(t[0]), abs(t[1])) > K4_MAX_ABS_INDEX]
    if outside:
        problems.append(f"brute force over |index| <= {WIDE_BOX} finds {outside[:3]} "
                        f"beyond |index| {K4_MAX_ABS_INDEX}")
    first = docs[0] if docs else {}
    for doc in docs[1:]:
        for key in PIPELINE_INVARIANTS:
            if doc[key] != first[key]:
                problems.append(f"pipeline: {key} differs between {first['precision_bits']}"
                                f" and {doc['precision_bits']} bits")
        if [(o["M"], o["q"], o["new_bound"]) for o in doc["reduction_trace"]] != \
                [(o["M"], o["q"], o["new_bound"]) for o in first["reduction_trace"]]:
            problems.append("pipeline: reduction traces differ between precisions")
    return problems


# ---------------------------------------------------------------------------
# exact integers
# ---------------------------------------------------------------------------

DIGIT_LIMIT_MESSAGE = re.compile(r"Exceeds the limit \(\d+ digits\)")


def check_far_value(k: int, n: int, text: str) -> list:
    """`kfib K N` printed `text`; compare with F_n mod several primes."""
    try:
        claimed = parse_int(text)
    except ValueError:
        return [f"kfib {k} {n}: output is not an integer"]
    if not refmath.agrees_mod_primes(k, n, claimed):
        return [f"kfib {k} {n}: value disagrees with F_n mod the reference primes"]
    return []


def is_digit_limit_failure(k: int, n: int, rc: int, err: str) -> bool:
    """The known fault: a valid value with more than 4300 decimal digits
    makes the CLI exit 3 instead of printing it."""
    return (rc == 3 and DIGIT_LIMIT_MESSAGE.search(err) is not None
            and abs(refmath.value(k, n)) >= 10 ** INT_STR_DIGITS)


def check_window(doc: dict) -> list:
    k, lo, hi, values = doc["k"], doc["lo"], doc["hi"], doc["values"]
    tag = f"window {k} {lo} {hi}"
    if len(values) != hi - lo + 1:
        return [f"{tag}: {len(values)} values"]
    problems = []
    total = sum(values[:k])
    for i in range(k, len(values)):
        if values[i] != total:
            problems.append(f"{tag}: recurrence fails at n = {lo + i}")
            break
        total += values[i] - values[i - k]
    block = range(-k + 2, 2)
    if lo <= block[0] and block[-1] <= hi:
        if values[block[0] - lo:block[-1] - lo + 1] != [0] * (k - 1) + [1]:
            problems.append(f"{tag}: initial block is not 0, ..., 0, 1")
    elif values[:k] != refmath.window(k, lo, lo + k - 1):
        problems.append(f"{tag}: first {k} values differ from the reference")
    return problems


def check_scan(doc: dict) -> list:
    k, lo, hi = doc["k"], doc["lo"], doc["hi"]
    indices = range(lo, hi + 1)
    ref = _repeat_classes(refmath.window(k, lo, hi), indices)
    if doc["classes"] != ref:
        return [f"scan {k} {lo} {hi}: repeat classes differ from brute force"]
    return []


def check_solve_pm(doc: dict) -> list:
    k, l = doc["k"], doc["l"]
    (m_lo, m_hi), (n_lo, n_hi) = doc["m_range"], doc["n_range"]
    ms, ns = range(m_lo, m_hi + 1), range(n_lo, n_hi + 1)
    ref = _pm_matches(refmath.window(k, m_lo, m_hi), ms, refmath.window(l, n_lo, n_hi), ns)
    if [tuple(t) for t in doc["matches"]] != ref:
        return [f"solve-pm {k} {l}: {len(doc['matches'])} matches, brute force {len(ref)}"]
    return []


def check_powers(doc: dict) -> list:
    k, lo, hi = doc["k"], doc["lo"], doc["hi"]
    tag = f"powers {k} {lo} {hi}"
    values = refmath.window(k, lo, hi)
    problems = []
    for n, x, q in doc["nontrivial"]:
        if not (lo <= n <= hi and abs(x) >= 2 and q >= 2 and x ** q == values[n - lo]):
            problems.append(f"{tag}: F_{n} = {x}^{q} is false")
    nontrivial, trivial = [], []
    for n, v in zip(range(lo, hi + 1), values):
        if v in (0, 1, -1):
            trivial.append([n, v])
        else:
            found = refmath.perfect_power(v)
            if found:
                nontrivial.append([n, found[0], found[1]])
    if doc["nontrivial"] != nontrivial:
        problems.append(f"{tag}: perfect powers differ from the reference "
                        f"(reported {len(doc['nontrivial'])}, reference {len(nontrivial)})")
    if doc["trivial"] != trivial:
        problems.append(f"{tag}: trivial values 0, +-1 differ from the reference")
    if k == 2 and lo <= -6 and 12 <= hi:
        # Bugeaud-Mignotte-Siksek (2006), with F_-n = (-1)^(n+1) F_n
        values_found = {x ** q for _n, x, q in doc["nontrivial"]}
        if values_found != {8, -8, 144} or [-6, -2, 3] not in doc["nontrivial"]:
            problems.append(f"{tag}: Fibonacci perfect powers are not exactly 8, -8, 144")
    return problems
