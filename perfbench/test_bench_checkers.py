"""Tests of the benchmark itself: each checker accepts negafib's real output
and rejects a corrupted copy of it.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import refmath  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from negafib.cli import run  # noqa: E402


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = run([str(a) for a in argv], out, err)
    return rc, out.getvalue(), err.getvalue()


def cli_json(*argv):
    rc, out, err = cli(*argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def encode(x: Fraction) -> str:
    """Inverse of refmath.decode_endpoint for a dyadic rational."""
    if x == 0:
        return "0"
    exp = -(x.denominator.bit_length() - 1)
    assert x.denominator == 1 << -exp
    return f"{'-' if x < 0 else ''}{abs(x.numerator):x}p{exp}"


def test_reference_recurrence_known_values():
    assert refmath.window(4, -11, 5) == [4, 0, 1, -3, 2, 0, 0, -1, 1, 0, 0, 0, 1, 1, 2, 4, 8]
    assert refmath.window(2, -6, 6) == [-8, 5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8]
    for k in (2, 5, 40):
        values = refmath.window(k, -300, 300)
        for n in (-300, -41, -1, 0, 7, 300):
            assert refmath.value_mod(k, n, refmath.PRIMES[0]) == values[n + 300] % refmath.PRIMES[0]


def test_roots_checker_rejects_enclosure_shifted_by_its_width():
    doc = cli_json("roots", 4)
    assert checkers.check_roots(doc) == []
    for i in (0, 1):  # the real dominant root and a complex one
        bad = copy.deepcopy(doc)
        re = bad["roots"][i]["re"]
        lo, hi = refmath.decode_endpoint(re["exact_lo"]), refmath.decode_endpoint(re["exact_hi"])
        re["exact_lo"], re["exact_hi"] = encode(hi), encode(2 * hi - lo)
        assert checkers.check_roots(bad)


def test_enclosure_bits_reads_the_exact_endpoints():
    doc = cli_json("roots", 4)
    bits = checkers.enclosure_bits([doc])
    assert 300 < bits < 384
    wide = copy.deepcopy(doc)
    re = wide["roots"][0]["re"]
    lo = refmath.decode_endpoint(re["exact_lo"])
    re["exact_hi"] = encode(lo + Fraction(1, 2 ** 99))
    assert checkers.enclosure_bits([wide]) == 100


def test_pipeline_checker_rejects_dropped_extra_and_misreduced():
    doc = cli_json("pipeline-k4", "--precision-bits", 192)
    assert checkers.check_pipeline([doc]) == []
    dropped = copy.deepcopy(doc)
    dropped["solutions"].pop()
    assert checkers.check_pipeline([dropped])
    extra = copy.deepcopy(doc)
    m, n, c, s = extra["solutions"][-1]
    extra["solutions"].append([m + 1, n, c, s])
    assert checkers.check_pipeline([extra])
    misreduced = copy.deepcopy(doc)
    misreduced["reduction_trace"][0]["new_bound"] += 5
    assert checkers.check_reduction_trace(misreduced["reduction_trace"])


def test_powers_checker_rejects_non_maximal_power():
    doc = cli_json("powers", 5, 0, 12)
    assert [6, 2, 4] in doc["nontrivial"]  # F_6 = 16 for order 5
    assert checkers.check_powers(doc) == []
    bad = copy.deepcopy(doc)
    bad["nontrivial"][bad["nontrivial"].index([6, 2, 4])] = [6, 4, 2]
    assert checkers.check_powers(bad)
    fib = cli_json("powers", 2, -20, 20)
    assert checkers.check_powers(fib) == []
    fib["nontrivial"].remove([-6, -2, 3])
    assert checkers.check_powers(fib)


def test_far_value_checker_rejects_off_by_one():
    for k, n in ((4, 3000), (40, -5000)):
        rc, out, _err = cli("kfib", k, n)
        assert rc == 0
        assert checkers.check_far_value(k, n, out) == []
        assert checkers.check_far_value(k, n, str(checkers.parse_int(out) + 1))


def test_digit_limit_failure_is_recognised_only_for_huge_values():
    rc, _out, err = cli("kfib", 4, 20000)
    assert checkers.is_digit_limit_failure(4, 20000, rc, err)
    assert not checkers.is_digit_limit_failure(4, 100, rc, err)


def test_scan_checkers_reject_corrupted_output():
    window = cli_json("window", 4, -60, 60)
    assert checkers.check_window(window) == []
    window["values"][70] += 1
    assert checkers.check_window(window)
    scan = cli_json("scan", 4, -200, 200, "--repeats-only")
    assert checkers.check_scan(scan) == []
    scan["classes"].popitem()
    assert checkers.check_scan(scan)
    pm = cli_json("solve-pm", 3, 4, "-100..100", "-100..100")
    assert checkers.check_solve_pm(pm) == []
    pm["matches"].pop()
    assert checkers.check_solve_pm(pm)


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    orders = sorted(set(workloads.ROOT_ORDERS) | {4})
    facts = {"output_bytes": 0, "roots_cached_s": 0.0, "round_s": 1.0}
    names = tracer.Tracer(384).layer_metrics(1, orders, facts, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(names)
