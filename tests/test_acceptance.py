"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (run with -s to see them on success)."""

import io
import json
import time
from fractions import Fraction


from negafib.balls import RBall
from negafib.charpoly import compute_roots, cross_k_monotonicity, dominance_constants, smallest_root_check
from negafib.cli import run
from negafib.linforms import crossing_bound, matveev_exponent, mixed_sign_instance
from negafib.reduction import BDInstance, bd_iterate
from negafib.sequence import binet_eval, dominance_residual, kfib
from negafib.solvers import REPLAY_PASS1_MIN_Q, k4_pipeline

PREC = 384


def report(number, ok, text):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def cli_json(argv):
    out = io.StringIO()
    code = run(argv + ["--format", "json"], out=out, err=io.StringIO())
    assert code == 0
    return json.loads(out.getvalue())


def test_criterion_01_repeat_classes():
    t0 = time.monotonic()
    payload = cli_json(["scan", "4", "-104", "0", "--repeats-only"])
    elapsed = time.monotonic() - t0
    classes = {int(c): tuple(v) for c, v in payload["classes"].items()}
    ok = (set(classes) == {0, 1, 8}
          and classes[0] == (-10, -6, -5, -2, -1, 0)
          and classes[1] == (-14, -9, -4, -3)
          and classes[8] == (-15, -12)
          and [len(classes[c]) for c in (0, 1, 8)] == [6, 4, 2]
          and "one-index shift" in payload["reference_note"]
          and elapsed < 1.0)
    report(1, ok, f"repeat classes {{0,1,8}} with sizes 6/4/2, offset flagged "
                  f"({elapsed:.2f}s)")


def test_criterion_02_mixed_classes():
    t0 = time.monotonic()
    payload = cli_json(["solve-pm", "4", "4", "1..30", "-225..-1"])
    elapsed = time.monotonic() - t0
    matches = {tuple(t[:2]) for t in payload["matches"]}
    expected = {(1, -3), (1, -4), (1, -9), (1, -14),
                (2, -3), (2, -4), (2, -9), (2, -14),
                (3, -7), (4, -11), (5, -12), (5, -15), (8, -21)}
    ok = (payload["value_classes"] == [1, 2, 4, 8, 56]
          and matches == expected
          and len(payload["matches"]) == len(expected)
          and elapsed < 1.0)
    report(2, ok, f"value classes {{1,2,4,8,56}} with the oracle index sets "
                  f"and nothing else ({elapsed:.2f}s)")


def test_criterion_03_dominance_constants():
    consts = dominance_constants(4, PREC)
    ok = (abs(consts.c1.mid() - Fraction("0.92")) < Fraction("0.01")
          and abs(consts.delta.mid() - Fraction("0.786")) < Fraction("0.001"))
    profile = compute_roots(4, PREC)
    a4_abs = abs(profile.smallest_root())
    for n in range(-200, 0):
        residual = dominance_residual(4, n, PREC)
        envelope = consts.c1 * (consts.delta * n * a4_abs.log()).exp()
        if not residual.upper() <= envelope.lower():
            ok = False
            break
    report(3, ok, "(c1, delta) within (0.92 +- 0.01, 0.786 +- 0.001); "
                  "dominance inequality certified on n in [-200, -1]")


def test_criterion_04_dresden_suite():
    t0 = time.monotonic()
    half = Fraction(1, 2)
    ok = True
    for k in range(2, 11):
        for n in range(0, 301):
            if not dominance_residual(k, n, PREC).upper() < half:
                ok = False
                break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, f"|F_n - dominant term| < 1/2 certified for k in 2..10, "
                  f"n in 0..300 at {PREC} bits ({elapsed:.1f}s)")


def test_criterion_05_matveev_coefficient():
    ms = mixed_sign_instance(compute_roots(4, PREC), PREC)
    coeff = matveev_exponent(ms.matveev, PREC)
    printed = Fraction(284, 100) * 10**16
    rel = abs(coeff.mid() - printed) / printed
    report(5, rel < Fraction(1, 200),
           f"(1+log B) coefficient {coeff.mid_str(8)} within 0.5% of 2.84e16 "
           f"(rel {float(rel):.4%})")


def test_criterion_06_crossing_bound():
    n0 = crossing_bound("0.0546", "1.648", Fraction(284, 100) * 10**16, PREC)
    printed = Fraction(232, 100) * 10**19
    rel = abs(Fraction(n0) - printed) / printed
    report(6, rel < Fraction(1, 100),
           f"crossing at {n0} within 1% of 2.32e19 (rel {float(rel):.4%})")


def test_criterion_07_reduction():
    ms = mixed_sign_instance(compute_roots(4, PREC), PREC)
    inst = BDInstance(kappa=ms.kappa, mu=ms.mu,
                      A=RBall.from_decimal("9.14", PREC),
                      B=RBall.from_decimal("1.056", PREC), M=10**20)
    t0 = time.monotonic()
    trace = bd_iterate(inst, PREC, min_q_first=REPLAY_PASS1_MIN_Q)
    elapsed = time.monotonic() - t0
    p1, p2 = trace[0], trace[1]
    ok = (p1.q == 66618036593827352256020
          and p1.epsilon_lower.lower() >= Fraction("0.04")
          and p1.new_bound in (1063, 1064)
          and p2.q == 3336
          and p2.epsilon_lower.lower() >= Fraction("0.136")
          and p2.new_bound in (225, 226)
          and elapsed < 5.0)
    report(7, ok, f"pass 1: q={p1.q}, eps>=0.04, bound={p1.new_bound}; "
                  f"pass 2: q=3336, eps>=0.136, bound={p2.new_bound} "
                  f"({elapsed:.2f}s)")


def test_criterion_08_root_theorem_suite():
    t0 = time.monotonic()
    ok = True
    for k in range(4, 41, 2):
        cert = smallest_root_check(k, PREC)
        profile = compute_roots(k, PREC)
        small = profile.smallest_root()
        in_interval = (small.gt(RBall.from_int(-1, PREC))
                       and small.lt(RBall.from_fraction(-Fraction(1, 3**k), PREC)))
        strictly = all(profile.moduli[-1].lt(profile.moduli[i]) for i in range(k - 1))
        lam_product = (cert.lam * small).contains(-1)
        if not (cert.ok and in_interval and strictly and lam_product
                and profile.real_flags[-1]):
            ok = False
    order_report = cross_k_monotonicity(40, PREC)
    ok = ok and order_report.all_certified
    for k in range(2, 41):
        if not compute_roots(k, PREC).separation_certified:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(8, ok, f"even k <= 40: minimal root real in (-1, -3^-k), strictly "
                  f"smallest, lambda*root contains -1; cross-order "
                  f"monotonicity; moduli separation for all k <= 40 "
                  f"({elapsed:.1f}s)")


def test_criterion_09_pipeline():
    t0 = time.monotonic()
    rep = k4_pipeline(PREC)
    elapsed = time.monotonic() - t0
    expected = {(1, -3), (1, -4), (1, -9), (1, -14),
                (2, -3), (2, -4), (2, -9), (2, -14),
                (3, -7), (4, -11), (5, -12), (5, -15), (8, -21)}
    cert_names = {c.name for c in rep.certificates}
    ok = (rep.certified
          and {t[:2] for t in rep.solutions.matches} == expected
          and rep.solutions.value_classes() == (1, 2, 4, 8, 56)
          and "matveev_coefficient_checkpoint" in cert_names
          and "crossing_checkpoint" in cert_names
          and "reduction_pass1_checkpoint" in cert_names
          and "reduction_pass2_checkpoint" in cert_names
          and rep.max_abs_index == 21
          and rep.reference_max_index == 22
          and any("21" in note and "22" in note for note in rep.notes)
          and elapsed < 300.0)
    report(9, ok, f"certified end-to-end, solutions match, checkpoints "
                  f"embedded, max |index| 21 vs reference 22 ({elapsed:.1f}s)")


def test_criterion_10_binet_oracle_equivalence():
    ok = True
    for k in range(2, 11):
        for n in range(-300, 301):
            if not binet_eval(k, n, PREC).contains(kfib(k, n)):
                ok = False
                break
    report(10, ok, "analytic formula encloses the exact integer for "
                   "k in 2..10, |n| <= 300 at 384 bits")
