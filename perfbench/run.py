"""negafib benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload roots|pipeline-k4|exact --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; negafib is imported from ``src``.
The run repeats whole rounds of the workload's operations until S seconds
have passed, emptying negafib's caches where a round or an operation must
start cold, and reports for each operation the median of its repeats.  It
then checks the first round's outputs against independent computations
(refmath, checkers) and requires every later round to print the same bytes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # scratch cache dirs and trace files; ignored by git

# The host's speed drifts by a factor of up to 1.7 within seconds and stays
# low for minutes (a fixed loop took 64 to 112 ms from one second to the
# next), far more than the differences the benchmark must resolve.  So every
# time is reported at a reference speed: each operation's wall time is
# multiplied by CAL_REF_S over the mean duration of the calibration loops run
# just before and just after it, and setup_s by CAL_REF_S over the run's
# median loop.  CAL_REF_S is about what the loop takes on that host.  Of the
# loops tried, this mix tracked negafib's operations best: it cut the
# quartile spread of single repeats from about 40 % to 9-12 %.
CAL_REF_S = 0.008


def _args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("roots", "pipeline-k4", "exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _import_negafib():
    """Import negafib from the checkout; the cold set-up that setup_s times."""
    # one process, no helper threads in numpy's linear algebra
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # defaults must come from the command lines below, not the environment
    for var in ("NEGAFIB_PRECISION_BITS", "NEGAFIB_CACHE_DIR"):
        os.environ.pop(var, None)
    if not (SRC / "negafib" / "__init__.py").is_file():
        raise ImportError(f"no negafib package under {SRC}")
    sys.path.insert(0, str(SRC))
    import negafib  # noqa: F401
    import negafib.cli  # noqa: F401


def main() -> int:
    args = _args()
    try:
        _import_negafib()
    except ImportError as exc:
        print(f"benchmark: cannot import negafib: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _START

    import workloads
    from workloads import Result

    scratch = OUT / f"cache-dir-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), scratch)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(sys.modules["negafib.balls"].DEFAULT_PREC)
        tracer.install()

    first, first_round_spans = None, 0
    mismatches = []
    op_s = {op.label: [] for op in wl.ops}  # speed-normalised time of every repeat
    wall_s, cal_s = [], [_calibrate()]
    output_bytes = attempted = failed = 0
    begin = time.perf_counter()
    try:
        while True:
            wl.reset()
            gc.collect()
            results = {}
            for op in wl.ops:
                if op.cold:
                    workloads.clear_caches()
                t = time.perf_counter()
                try:
                    res = op.call()
                except Exception as exc:  # a failed operation is counted, not fatal
                    res = Result(False, None, f"{type(exc).__name__}: {exc}", -1)
                dt = time.perf_counter() - t
                cal_s.append(_calibrate())
                # the machine's speed during the op, from the loops on either side
                op_s[op.label].append(dt * CAL_REF_S / ((cal_s[-2] + cal_s[-1]) / 2))
                wall_s.append(dt)
                attempted += 1
                failed += not res.ok
                if isinstance(res.value, str):
                    output_bytes += len(res.value.encode())
                results[op.label] = res
            if first is None:
                first = results
                first_round_spans = len(tracer.spans) if tracer else 0
            else:
                mismatches += [f"{label}: output differs from round 1"
                               for label, res in results.items() if res != first[label]]
            if time.perf_counter() - begin >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    rounds = len(wall_s) // len(wl.ops)
    # peak memory of the measured work, before any reference is loaded
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"{label}: failed with exit {res.rc}: {res.err.strip()[:200]}"
                for label, res in first.items()
                if not res.ok and not wl.known_fault(label, res)]
    if not problems:
        try:
            problems += wl.check(first)
        except Exception as exc:  # output too malformed for a checker to read
            problems.append(f"checker failed: {type(exc).__name__}: {exc}")
    problems += mismatches[:20]
    try:
        bits = workloads.checkers.enclosure_bits(wl.enclosure_docs(first))
    except (ValueError, KeyError, TypeError) as exc:  # an enclosure op failed
        bits = 0.0
        problems.append(f"no root enclosures to measure: {exc}")

    per_op = {label: statistics.median(times) for label, times in op_s.items()}
    round_s = sum(per_op.values())
    groups = {f"{g}_s": sum(per_op[op.label] for op in wl.ops if op.group == g)
              for g in wl.groups}
    speed = CAL_REF_S / statistics.median(cal_s)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "ops_per_round": len(wl.ops), "groups": groups,
                      "wall_s_per_round": sum(wall_s) / rounds, "speed": speed,
                      "problems": len(problems)}))

    if args.trace:
        facts = {"output_bytes": output_bytes / rounds,
                 "roots_cached_s": sum(per_op[op.label] for op in wl.ops if op.cached_read),
                 "round_s": round_s}
        orders = sorted(set(workloads.ROOT_ORDERS) | {4})
        layer = tracer.layer_metrics(rounds, orders, facts, speed)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", rounds,
                     first_round_spans, speed)
    else:
        metrics = {
            "setup_s": {"value": setup_s * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
            "enclosure_bits": {"value": bits, "unit": "bits"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _calibrate() -> float:
    """Seconds taken by a fixed mix of the work negafib spends its time on:
    400-bit integer arithmetic, mpmath's pure-Python floating point at 384
    bits, and small dict, tuple and list traffic."""
    from mpmath.libmp import from_rational, mpf_add, mpf_mul, round_ceiling, round_floor
    t = time.perf_counter()
    x = (1 << 400) - 12345
    acc = 0
    for i in range(10000):
        acc = (acc + x * (i | 1)) >> 3
    f = g = from_rational(355, 113, 384, round_floor)
    for i in range(1250):
        g = mpf_add(mpf_mul(f, g, 384, round_floor), f, 384, round_ceiling)
        if i % 2:
            g = mpf_mul(g, f, 384, round_floor)
    table = {}
    y = (1 << 300) - 1
    for i in range(3000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0) + y * i
        _ = [y >> j for j in (1, 2, 3)]
    return time.perf_counter() - t


def _benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
