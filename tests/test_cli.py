import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema

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
