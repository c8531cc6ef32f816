import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import negafib
from negafib.charpoly import MAX_DEGREE
from negafib.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    path = resources.files("negafib").joinpath("schemas", name)
    return json.loads(path.read_text(encoding="utf-8"))


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


def test_kfib_text_output():
    code, out, _ = invoke(["kfib", "4", "-12"])
    assert code == 0 and out == "-8\n"


def test_kfib_rejects_low_order():
    code, _out, err = invoke(["kfib", "1", "5"])
    assert code == 3 and "k" in err


def test_unknown_subcommand():
    code, _out, _err = invoke(["no-such-command"])
    assert code == 3


def test_window_csv():
    code, out, _ = invoke(["window", "4", "-5", "-1", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,value", "-5,0", "-4,-1", "-3,1", "-2,0", "-1,0"]


def test_scan_json_schema_and_reference_note():
    code, out, _ = invoke(["scan", "4", "-104", "0", "--repeats-only",
                           "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "scan_result.schema.json")
    assert payload["classes"]["0"] == [-10, -6, -5, -2, -1, 0]
    assert "one-index shift" in payload["reference_note"]
    assert "mismatches [5, 6]" in payload["reference_note"]


def test_solve_pm_json_schema():
    code, out, _ = invoke(["solve-pm", "4", "4", "1..30", "-225..-1",
                           "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "match_result.schema.json")
    assert payload["value_classes"] == [1, 2, 4, 8, 56]


def test_bad_range_argument():
    code, _out, err = invoke(["solve-pm", "4", "4", "1:30", "-5..-1"])
    assert code == 3 and "range" in err


def test_roots_json_schema(tmp_path):
    code, out, _ = invoke(["roots", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "root_profile.schema.json")
    assert payload["separation_certified"] is True


def test_roots_cache_transparency(tmp_path):
    cold = invoke(["roots", "5", "--cache-dir", str(tmp_path), "--format", "json"])
    assert (tmp_path / "roots_k5_p384.json").exists()
    warm = invoke(["roots", "5", "--cache-dir", str(tmp_path), "--format", "json"])
    plain = invoke(["roots", "5", "--format", "json"])
    assert cold == warm == plain


def test_roots_cache_recomputes_a_doubled_precision_profile(monkeypatch, tmp_path):
    import negafib.cli as cli

    real, calls = cli.compute_roots, []

    def doubled(k, prec):
        calls.append((k, prec))
        return real(k, 2 * prec)

    monkeypatch.setattr(cli, "compute_roots", doubled)
    argv = ["roots", "4", "--precision-bits", "128", "--cache-dir", str(tmp_path),
            "--format", "json"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second and first[0] == 0
    assert calls == [(4, 128), (4, 128)]


def test_roots_cache_ignores_an_edited_precision(tmp_path):
    argv = ["roots", "4", "--cache-dir", str(tmp_path), "--format", "json"]
    cold = invoke(argv)
    path = tmp_path / "roots_k4_p384.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["precision_bits"] = 4096
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke(argv) == cold
    assert json.loads(cold[1])["precision_bits"] == 384


def test_roots_cache_derives_structure_from_the_boxes(tmp_path):
    # weights, moduli, realness, conjugate pairs and separation come from the
    # root boxes, so edited derived fields in a cache document change nothing
    plain = {fmt: invoke(["roots", "6", "--format", fmt]) for fmt in ("json", "csv", "text")}
    argv = ["roots", "6", "--cache-dir", str(tmp_path)]
    assert invoke(argv + ["--format", "json"]) == plain["json"]
    path = tmp_path / "roots_k6_p384.json"
    cached = json.loads(path.read_text(encoding="utf-8"))
    edited = dict(cached, weights=cached["weights"][::-1],
                  real_flags=[not flag for flag in cached["real_flags"]],
                  conjugate_partner=[None] * len(cached["conjugate_partner"]),
                  separation_certified=False)
    edited["moduli"] = list(cached["moduli"])
    edited["moduli"][3] = dict(cached["moduli"][3], exact_lo="1p0", exact_hi="1p0")
    cut = dict(cached, weights=cached["weights"][:2], moduli=cached["moduli"][:2])
    for doc in (edited, cut):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt, expected in plain.items():
            assert invoke(argv + ["--format", fmt]) == expected, fmt


def test_roots_cache_refuses_a_profile_with_missing_roots(tmp_path):
    argv = ["roots", "4", "--cache-dir", str(tmp_path)]
    assert invoke(argv)[0] == 0
    path = tmp_path / "roots_k4_p384.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("roots", "weights", "moduli"):
        doc[key] = doc[key][:2]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(argv)
    assert (code, out) == (4, "") and "certification failed" in err


def test_roots_cache_refuses_malformed_boxes_at_once(tmp_path):
    argv = ["roots", "4", "--cache-dir", str(tmp_path)]
    assert invoke(argv)[0] == 0
    path = tmp_path / "roots_k4_p384.json"
    cached = path.read_text(encoding="utf-8")
    a1 = json.loads(cached)["roots"][0]["re"]
    # (root, lo, hi, exit code): a reversed interval, swapped endpoints, an
    # exponent past any precision, and a non-string endpoint
    cases = [(3, "3p0", "-3p0", 4), (0, a1["exact_hi"], a1["exact_lo"], 4),
             (0, a1["exact_lo"], "1p99999999999", 4), (0, 1, a1["exact_hi"], 3)]
    for i, lo, hi, expected in cases:
        doc = json.loads(cached)
        doc["roots"][i]["re"].update(exact_lo=lo, exact_hi=hi)
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert (code, out) == (expected, "") and err, (lo, hi)
        assert time.perf_counter() - start < 0.1, (lo, hi)
    path.write_text(json.dumps([json.loads(cached)]), encoding="utf-8")
    assert invoke(argv)[:2] == (3, "")


def test_determinism():
    a = invoke(["constants", "4", "--format", "json"])
    b = invoke(["constants", "4", "--format", "json"])
    assert a == b


def test_height_subcommand(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": [-3, 2]}))
    code, out, _ = invoke(["height", str(poly), "--format", "json"])
    assert code == 0
    assert json.loads(out)["height"]["mid"].startswith("1.0986")
    code, _out, err = invoke(["height", str(tmp_path / "missing.json")])
    assert code == 3
    poly.write_text(json.dumps({"coeffs": "nope"}))
    assert invoke(["height", str(poly)])[0] == 3
    # a coefficient past the double range is refused before any work
    poly.write_text(json.dumps({"coeffs": [-3, 0, 10**400]}))
    start = time.perf_counter()
    code, _out, err = invoke(["height", str(poly)])
    assert code == 3 and "double range" in err
    assert time.perf_counter() - start < 0.1


def test_import_leaves_numpy_out():
    src = Path(negafib.__file__).resolve().parents[1]
    probe = "import sys, negafib, negafib.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_orders_and_degrees_over_the_cap_exit_3_at_once(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": [-1] * (MAX_DEGREE + 1) + [1]}))
    over = str(MAX_DEGREE + 2)  # even, for order-check
    for argv in (["roots", over], ["constants", over], ["order-check", over],
                 ["roots", "1" + "0" * 30], ["height", str(poly)]):
        start = time.perf_counter()
        code, _out, err = invoke(argv)
        assert code == 3 and "limit" in err, argv
        assert time.perf_counter() - start < 0.1, argv


def test_matveev_subcommand(tmp_path):
    inst = tmp_path / "inst.json"
    doc = {"t": 1, "D": 1, "B": 1, "A": ["0.16"]}
    validate(doc, "matveev_instance.schema.json")
    inst.write_text(json.dumps(doc))
    code, out, _ = invoke(["matveev", str(inst), "--format", "json"])
    assert code == 0
    assert json.loads(out)["exponent"]["mid"].startswith("181440")
    inst.write_text(json.dumps({"t": 1, "D": 1, "B": 1, "A": ["0.01"]}))
    assert invoke(["matveev", str(inst)])[0] == 3


def test_reduce_subcommand(tmp_path):
    inst = tmp_path / "bd.json"
    doc = {"kappa": "0.5", "mu": "0.25", "A": "5", "B": "1.5", "M": 10, "exact": True}
    validate(doc, "bd_instance.schema.json")
    inst.write_text(json.dumps(doc))
    code, out, _ = invoke(["reduce", str(inst), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "reduction_trace.schema.json")
    assert payload["trace"][0]["q"] == 2
    assert payload["trace"][0]["status"] == "reduced"


def test_reduce_reports_the_epsilon_of_the_reported_q(tmp_path):
    # no candidate reduces, so the pass reports the first candidate with
    # its own epsilon, not the epsilon of the last candidate tried
    inst = tmp_path / "bd.json"
    inst.write_text(json.dumps({
        "kappa": "0.41421356237309504880168872420969807856967187537694",
        "mu": "0", "A": "5", "B": "1.5", "M": 10, "exact": True,
    }))
    code, out, _ = invoke(["reduce", str(inst), "--format", "json"])
    assert code == 0
    [outcome] = json.loads(out)["trace"]
    assert (outcome["q"], outcome["status"]) == (12, "not_applicable")
    assert outcome["epsilon_lower"]["mid"].startswith("-0.2943")


def test_reduce_precision_exhaustion(tmp_path):
    # three decimals of kappa cannot certify a convergent past M = 10^20
    inst = tmp_path / "bd.json"
    inst.write_text(json.dumps({
        "kappa": "0.389", "mu": "-2.03", "A": "9.14", "B": "1.056",
        "M": 10**20,
    }))
    code, _out, err = invoke(["reduce", str(inst)])
    assert code == 2 and "precision" in err.lower()


def test_pipeline_json_schema():
    code, out, _ = invoke(["pipeline-k4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "pipeline_report.schema.json")
    assert payload["certified"] is True
    assert payload["solution_value_classes"] == [1, 2, 4, 8, 56]


def test_precision_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("NEGAFIB_PRECISION_BITS", "64")
    _code, out_env, _ = invoke(["constants", "4", "--format", "json"])
    _code, out_flag, _ = invoke(["constants", "4", "--precision-bits", "384",
                                 "--format", "json"])
    env_exp = json.loads(out_env)["c1"]["radius_exp"]
    flag_exp = json.loads(out_flag)["c1"]["radius_exp"]
    assert env_exp > flag_exp  # wider enclosure at the env's 64 bits


def test_precision_out_of_bounds():
    code, _out, err = invoke(["kfib", "--precision-bits", "32", "4", "8"])
    assert code == 3 and "precision" in err


def test_global_flags_before_subcommand():
    code, out, _ = invoke(["--format", "json", "kfib", "4", "8"])
    assert code == 0 and json.loads(out)["value"] == 56


def test_cache_dir_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("NEGAFIB_CACHE_DIR", str(tmp_path))
    code, _out, _err = invoke(["roots", "6", "--format", "json"])
    assert code == 0
    assert (tmp_path / "roots_k6_p384.json").exists()


def test_order_check_subcommand():
    code, out, _ = invoke(["order-check", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "misc_results.schema.json")
    assert payload["all_certified"] is True


def test_misc_outputs_validate():
    for argv in (["kfib", "4", "8"], ["window", "2", "0", "5"],
                 ["constants", "4"], ["powers", "4", "1", "20"]):
        code, out, _ = invoke(argv + ["--format", "json"])
        assert code == 0
        validate(json.loads(out), "misc_results.schema.json")


def test_matveev_log_floor_input(tmp_path):
    inst = tmp_path / "inst.json"
    doc = {"t": 1, "D": 1, "B": 1, "A": ["2"], "log_gamma_abs": ["1.5"]}
    validate(doc, "matveev_instance.schema.json")
    inst.write_text(json.dumps(doc))
    code, out, _ = invoke(["matveev", str(inst), "--format", "json"])
    assert code == 0
    validate(json.loads(out), "misc_results.schema.json")
    inst.write_text(json.dumps({
        "t": 1, "D": 1, "B": 1, "A": ["2"], "log_gamma_abs": ["2.5"],
    }))
    assert invoke(["matveev", str(inst)])[0] == 3  # floor above A_1


def test_instance_files_must_hold_an_object(tmp_path):
    doc = tmp_path / "doc.json"
    for text in ("[]", '"x"', "3", "null"):
        doc.write_text(text)
        for cmd in ("matveev", "reduce", "height"):
            code, out, err = invoke([cmd, str(doc)])
            assert (code, out) == (3, ""), (cmd, text)
            assert "JSON object" in err


def test_integer_fields_refuse_booleans_and_fractions(tmp_path):
    doc = tmp_path / "doc.json"

    def code_for(cmd, payload):
        doc.write_text(json.dumps(payload))
        return invoke([cmd, str(doc), "--format", "json"])[0]

    assert code_for("height", {"coeffs": [-3, 2.7]}) == 3
    assert code_for("height", {"coeffs": [True, 2]}) == 3
    assert code_for("height", {"coeffs": [-3.0, 2]}) == 0  # no fractional part
    matveev = {"t": 1, "D": 1, "B": 1, "A": ["0.16"]}
    assert code_for("matveev", {**matveev, "t": 1.9}) == 3
    assert code_for("matveev", {**matveev, "D": True}) == 3
    reduce = {"kappa": "0.5", "mu": "0.25", "A": "5", "B": "1.5", "M": 10, "exact": True}
    assert code_for("reduce", {**reduce, "M": 10.5}) == 3
    assert code_for("reduce", {**reduce, "M": True}) == 3
    assert code_for("reduce", {**reduce, "min_q_first": 2.5}) == 3
    assert code_for("reduce", {**reduce, "min_q_first": False}) == 3
    assert code_for("reduce", {**reduce, "M": "10"}) == 0  # schema allows strings


def test_exact_flag_must_be_a_json_boolean(tmp_path):
    doc = tmp_path / "doc.json"

    def code_for(cmd, payload):
        doc.write_text(json.dumps(payload))
        return invoke([cmd, str(doc)])[0]

    matveev = {"t": 1, "D": 1, "B": 1, "A": ["0.16"]}
    assert code_for("matveev", {**matveev, "exact": True}) == 0
    assert code_for("matveev", {**matveev, "exact": "no"}) == 3
    reduce = {"kappa": "0.5", "mu": "0.25", "A": "5", "B": "1.5", "M": 10}
    assert code_for("reduce", {**reduce, "exact": True}) == 0
    assert code_for("reduce", {**reduce, "exact": 1}) == 3


def test_array_fields_refuse_strings_and_objects(tmp_path):
    # a string or object iterates as characters or keys: "101" would be
    # the coefficients of x^2 + 1 and "12" the list A = (1, 2)
    doc = tmp_path / "doc.json"

    def code_for(cmd, payload):
        doc.write_text(json.dumps(payload))
        return invoke([cmd, str(doc)])[0]

    matveev = {"t": 2, "D": 1, "B": "10", "A": ["6", "6"]}
    assert code_for("matveev", matveev) == 0
    assert code_for("matveev", {**matveev, "log_gamma_abs": ["5"]}) == 0
    assert code_for("height", {"coeffs": "101"}) == 3
    assert code_for("height", {"coeffs": {"0": 1, "1": 0}}) == 3
    assert code_for("matveev", {**matveev, "A": "12"}) == 3
    assert code_for("matveev", {**matveev, "A": {"1": 0, "2": 0}}) == 3
    assert code_for("matveev", {**matveev, "log_gamma_abs": "5"}) == 3


def test_decimal_exponents_over_the_limit_exit_3_at_once(tmp_path):
    inst = tmp_path / "inst.json"
    matveev = {"t": 1, "D": 1, "B": 1, "A": ["0.16"]}
    reduce = {"kappa": "0.5", "mu": "0.25", "A": "5", "B": "1.5", "M": 10}
    cases = [("matveev", {**matveev, "B": "1e300000"}),
             ("matveev", {**matveev, "B": "1e10000000", "exact": False}),
             ("matveev", {**matveev, "A": ["1E+10000000"]}),
             ("matveev", {**matveev, "A": ["1"], "log_gamma_abs": ["1e-10000000"]}),
             ("reduce", {**reduce, "kappa": "0.5e-10000000"}),
             ("reduce", {**reduce, "mu": "-1e4301", "exact": True}),
             ("reduce", {**reduce, "B": "1e1_000_000"})]
    for cmd, doc in cases:
        inst.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = invoke([cmd, str(inst)])
        assert (code, out) == (3, "") and "exponent" in err, doc
        assert time.perf_counter() - start < 0.1, doc
    # exponents up to the limit are read as before
    for cmd, doc in (("matveev", {**matveev, "B": "1e4300"}),
                     ("matveev", {**matveev, "B": 10.0 ** 300}),
                     ("matveev", {**matveev, "A": ["1e4300"], "log_gamma_abs": ["1e-4300"]}),
                     ("reduce", {**reduce, "B": "1e4300", "exact": True})):
        inst.write_text(json.dumps(doc))
        assert invoke([cmd, str(inst)])[0] == 0, doc
    inst.write_text(json.dumps({**matveev, "A": ["16e-2", 0.5, 1]}))
    assert invoke(["matveev", str(inst)])[0] == 3  # t = 1 but three A values
    inst.write_text(json.dumps({**matveev, "A": ["16e-2"]}))
    assert invoke(["matveev", str(inst)])[0] == 0


# one small invocation per subcommand: the csv rows and text lines carry
# the same values as the JSON payload
def _check_kfib(payload, rows, lines):
    assert payload == {"k": 4, "n": -12, "value": -8}
    assert rows == [["k", "n", "value"], ["4", "-12", "-8"]]
    assert lines == ["-8"]


def _check_window(payload, rows, lines):
    pairs = [[str(n), str(v)] for n, v in
             zip(range(payload["lo"], payload["hi"] + 1), payload["values"])]
    assert rows == [["n", "value"]] + pairs
    assert lines == ["-5\t0", "-4\t-1", "-3\t1", "-2\t0", "-1\t0"]
    assert lines == ["\t".join(p) for p in pairs]


def _close(a, b, digits):
    return abs(Fraction(a) - Fraction(b)) <= Fraction(1, 10 ** digits)


def _check_roots(payload, rows, lines):
    assert rows[0] == ["index", "re_mid", "im_mid", "modulus_mid", "real"]
    assert lines[0] == ("roots of the order-4 characteristic polynomial "
                        "(64 bits, separation certified)")
    assert len(rows) == len(lines) == payload["k"] + 1
    for i, (row, root, modulus, real) in enumerate(zip(
            rows[1:], payload["roots"], payload["moduli"], payload["real_flags"]), 1):
        index, re_s, im_s, mod_s, flag = row
        assert index == str(i) and flag == str(real)
        assert _close(re_s, root["re"]["mid"], 24) and _close(im_s, root["im"]["mid"], 24)
        assert _close(mod_s, modulus["mid"], 24)
        assert lines[i] == f"  alpha_{i} = {re_s} + {im_s} i   |.| = {mod_s}"


def _check_constants(payload, rows, lines):
    assert rows == [["name", "mid", "radius_exp"]] + [
        [name, payload[name]["mid"], str(payload[name]["radius_exp"])]
        for name in ("c1", "delta")]
    assert [line.split(" = ")[0] for line in lines] == ["c1", "delta"]
    for line, name in zip(lines, ("c1", "delta")):
        assert _close(line.split(" = ")[1], payload[name]["mid"], 14)


def _check_order_check(payload, rows, lines):
    assert payload["all_certified"] is True
    assert rows == [["name", "certified", "note"]] + [
        [a["name"], str(a["certified"]), a["note"]] for a in payload["assertions"]]
    assert lines == [f"ok  {a['name']}" for a in payload["assertions"]] + [
        "all certified: True"]


def _check_height(payload, rows, lines):
    height = payload["height"]
    assert rows == [["degree", "height_mid", "radius_exp"],
                    ["1", height["mid"], str(height["radius_exp"])]]
    assert lines == ["h = 1.098612288668109691395245"]


def _check_matveev(payload, rows, lines):
    assert payload["exponent"] == {"mid": "181440.0", "radius_exp": -23}
    assert rows == [["exponent_mid", "radius_exp"], ["181440.0", "-23"]]
    assert lines == ["exponent = 181440.0"]


def _check_reduce(payload, rows, lines):
    assert rows[0] == ["M", "q", "epsilon_lower", "new_bound", "status"]
    assert [[r[0], r[1], r[3], r[4]] for r in rows[1:]] == [
        [str(o["M"]), str(o["q"]), str(o["new_bound"]), o["status"]] for o in payload["trace"]]
    assert [Fraction(r[2]) for r in rows[1:]] == [
        Fraction(o["epsilon_lower"]["mid"]) for o in payload["trace"]]
    assert lines == ["M=10 q=2 eps_lower=1/2 new_bound=8 reduced",
                     "M=8 q=2 eps_lower=1/2 new_bound=8 not_applicable"]


def _check_scan(payload, rows, lines):
    classes, note = payload["classes"], payload["reference_note"]
    assert rows == [["abs_value", "indices"]] + [
        [c, " ".join(map(str, idx))] for c, idx in classes.items()] + [["note", note]]
    assert lines == [f"|c| = {c}: n in {idx}" for c, idx in classes.items()] + [note]
    assert lines[0] == "|c| = 0: n in [-10, -6, -5, -2, -1, 0]"


def _check_solve_pm(payload, rows, lines):
    matches = payload["matches"]
    assert payload["value_classes"] == [1, 2, 4, 8, 56]
    assert rows == [["m", "n", "c", "sign"]] + [[str(x) for x in t] for t in matches]
    assert lines == [f"m={m} n={n} c={c} sign={s:+d}" for m, n, c, s in matches]
    assert lines[-1] == "m=8 n=-21 c=56 sign=+1"


def _check_powers(payload, rows, lines):
    assert rows == [["n", "x", "q"], ["4", "2", "2"], ["5", "2", "3"]]
    assert rows[1:] == [[str(x) for x in t] for t in payload["nontrivial"]]
    assert lines == ["F_4 = 2^2", "F_5 = 2^3", "F_1 = 1 (trivial)", "F_2 = 1 (trivial)"]
    assert payload["trivial"] == [[1, 1], [2, 1]]


def _check_pipeline(payload, rows, lines):
    certs = payload["certificates"]
    assert rows == [["certificate", "ok", "note"]] + [
        [c["name"], str(c["ok"]), c["note"]] for c in certs]
    assert lines == [
        f"certified: {payload['certified']}",
        f"case2 bounds (d, m, n): {tuple(payload['case2_bounds'])}",
        f"matveev bound on |n|: {payload['matveev_bound']}",
        f"final search bound: {payload['final_search_bound']}",
        f"max |index| among solutions: {payload['max_abs_index']}",
    ] + [f"  {'ok ' if c['ok'] else 'FAIL'} {c['name']} {c['note']}" for c in certs] + [
        f"note: {n}" for n in payload["notes"]]
    assert lines[:5] == ["certified: True", "case2 bounds (d, m, n): (-15, -89, -104)",
                         "matveev bound on |n|: 23193544331960219826",
                         "final search bound: 226", "max |index| among solutions: 21"]


SUBCOMMAND_CASES = [
    (["kfib", "4", "-12"], None, _check_kfib),
    (["window", "4", "-5", "-1"], None, _check_window),
    (["roots", "4", "--precision-bits", "64"], None, _check_roots),
    (["constants", "4", "--precision-bits", "64"], None, _check_constants),
    (["order-check", "4", "--precision-bits", "64"], None, _check_order_check),
    (["height"], {"coeffs": [-3, 2]}, _check_height),
    (["matveev"], {"t": 1, "D": 1, "B": 1, "A": ["0.16"]}, _check_matveev),
    (["reduce"], {"kappa": "0.5", "mu": "0.25", "A": "5", "B": "1.5", "M": 10,
                  "exact": True}, _check_reduce),
    (["scan", "4", "-20", "0", "--repeats-only"], None, _check_scan),
    (["solve-pm", "4", "4", "1..30", "-40..-1"], None, _check_solve_pm),
    (["powers", "4", "1", "20"], None, _check_powers),
    (["pipeline-k4", "--precision-bits", "192"], None, _check_pipeline),
]


def test_subcommand_cases_cover_every_subcommand():
    from negafib.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert sorted(argv[0] for argv, _doc, _check in SUBCOMMAND_CASES) == sorted(sub.choices)


@pytest.mark.parametrize("argv, doc, check", SUBCOMMAND_CASES,
                         ids=[case[0][0] for case in SUBCOMMAND_CASES])
def test_csv_and_text_agree_with_json(argv, doc, check, tmp_path):
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + [str(path)]
    outputs = {}
    for fmt in ("json", "csv", "text"):
        code, out, err = invoke(argv + ["--format", fmt])
        assert (code, err) == (0, ""), fmt
        outputs[fmt] = out
    rows = list(csv.reader(io.StringIO(outputs["csv"])))
    check(json.loads(outputs["json"]), rows, outputs["text"].splitlines())
