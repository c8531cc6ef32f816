"""The benchmark's workloads: inputs drawn from a seed, the operations of one
round, and the checks of a round's outputs.

Every operation goes through negafib's CLI entry point ``negafib.cli.run`` in
this process, except the library calls ``binet_eval`` and
``smallest_root_check``, which have no subcommand.  Modules are looked up in
``sys.modules`` at call time so that a traced run sees its wrappers.

A seed only jitters the inputs around fixed nominal values, so every seed
asks for nearly the same amount of work; the set of orders whose roots are
certified is fixed, which keeps ``enclosure_bits`` the same for every seed.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import checkers


class Result(NamedTuple):
    ok: bool
    value: object  # CLI: standard output; library call: converted result
    err: str = ""
    rc: int = 0


@dataclass(frozen=True)
class Op:
    group: str
    label: str
    call: Callable[[], Result]
    cold: bool = False  # empty negafib's caches first (untimed)
    cached_read: bool = False  # served from --cache-dir


def cli(*argv) -> Callable[[], Result]:
    argv = [str(a) for a in argv]

    def call() -> Result:
        out, err = io.StringIO(), io.StringIO()
        rc = sys.modules["negafib.cli"].run(list(argv), out, err)
        return Result(rc == 0, out.getvalue(), err.getvalue(), rc)
    return call


def library(module: str, name: str, args: tuple, convert) -> Callable[[], Result]:
    def call() -> Result:
        fn = getattr(sys.modules[module], name)
        return Result(True, convert(fn(*args)))
    return call


def clear_caches() -> None:
    """Empty every memo table in negafib: module-level dicts whose name
    contains 'cache', and anything with a ``cache_clear`` method."""
    for name, mod in list(sys.modules.items()):
        if name != "negafib" and not name.startswith("negafib."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict) and "cache" in attr.lower():
                obj.clear()
            elif callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _json(result: Result):
    return json.loads(result.value)


class Workload:
    """A workload: `ops` is one round; `groups` names the groups of its ops."""

    name: str
    groups: tuple
    ops: list

    def reset(self) -> None:
        """Prepare a round (untimed)."""

    def known_fault(self, label: str, res: Result) -> bool:
        """Is this failed operation the known fault that keeps `correct`?"""
        return False

    def enclosure_docs(self, results: dict) -> list:
        raise NotImplementedError

    def check(self, results: dict) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# roots: certified root profiles of T_k, Binet enclosures, the profile cache
# ---------------------------------------------------------------------------

ROOT_ORDERS = (2, 3, 4, 5, 6, 9, 12)
ORDER_CHECK_KMAX = 6
CACHE_ORDERS = (4, 9, 12)
BINET_DRAWS = 3  # per sign and order
BINET_MAX_INDEX = 200
DEFAULT_BITS = 384


class Roots(Workload):
    name = "roots"
    groups = ("roots", "binet", "cache")

    def __init__(self, rng, scratch: Path):
        self.scratch = scratch
        self.binet = [(k, sign * n) for k in ROOT_ORDERS for sign in (1, -1)
                      for n in rng.sample(range(2, BINET_MAX_INDEX + 1), BINET_DRAWS)]
        even = [k for k in ROOT_ORDERS if k % 2 == 0]
        ops = [Op("roots", f"roots {k}", cli("roots", k, "--format", "json"))
               for k in ROOT_ORDERS]
        ops += [Op("roots", f"constants {k}", cli("constants", k, "--format", "json"))
                for k in even if k > 2]
        ops += [Op("roots", f"smallest_root_check {k}",
                   library("negafib.charpoly", "smallest_root_check", (k,),
                           lambda c: (c.ok, c.lam.lower(), c.lam.upper())))
                for k in even]
        ops.append(Op("roots", "order-check", cli("order-check", ORDER_CHECK_KMAX,
                                                  "--format", "json")))
        ops += [Op("binet", f"binet {k} {n}",
                   library("negafib.sequence", "binet_eval", (k, n),
                           lambda b: (b.lower(), b.upper())))
                for k, n in self.binet]
        for k in CACHE_ORDERS:
            argv = ("roots", k, "--format", "json", "--cache-dir", scratch / f"k{k}")
            ops.append(Op("cache", f"roots {k} cache write", cli(*argv)))
            ops.append(Op("cache", f"roots {k} cache read", cli(*argv), cached_read=True))
        self.ops = [replace(ops[0], cold=True)] + ops[1:]

    def reset(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)

    def enclosure_docs(self, results: dict) -> list:
        return [_json(results[f"roots {k}"]) for k in ROOT_ORDERS]

    def check(self, results: dict) -> list:
        problems = []
        for doc in self.enclosure_docs(results):
            problems += checkers.check_roots(doc)
        for k in ROOT_ORDERS:
            if k % 2 == 0 and k > 2:
                problems += checkers.check_constants(_json(results[f"constants {k}"]))
            if k % 2 == 0:
                ok, lo, hi = results[f"smallest_root_check {k}"].value
                problems += checkers.check_smallest_root(k, DEFAULT_BITS, ok, lo, hi)
        problems += checkers.check_order_check(_json(results["order-check"]))
        for k, n in self.binet:
            problems += checkers.check_binet(k, n, *results[f"binet {k} {n}"].value)
        for k in CACHE_ORDERS:
            cold = results[f"roots {k}"].value
            for how in ("write", "read"):
                if results[f"roots {k} cache {how}"].value != cold:
                    problems.append(f"roots {k}: output with --cache-dir ({how}) "
                                    "differs from the cold output")
        return problems


# ---------------------------------------------------------------------------
# pipeline-k4: the certified order-4 resolution, cold, at several precisions
# ---------------------------------------------------------------------------

# 192 bits is the lowest precision that certifies; 128 bits exits 2 by design
PIPELINE_BITS = (192, 256, 384, 512, 1024)
PIPELINE_JITTER = (0, 16, 32, 48)  # added to every precision but the lowest


class PipelineK4(Workload):
    name = "pipeline-k4"
    groups = ("pipeline", "enclosures")

    def __init__(self, rng, scratch: Path):
        self.bits = [PIPELINE_BITS[0]] + [b + rng.choice(PIPELINE_JITTER)
                                         for b in PIPELINE_BITS[1:]]
        self.ops = []
        for b in self.bits:
            self.ops.append(Op("pipeline", f"pipeline-k4 {b}",
                               cli("pipeline-k4", "--precision-bits", b, "--format", "json"),
                               cold=True))
            # the order-4 enclosures the pipeline just certified, from the
            # in-process profile cache
            self.ops.append(Op("enclosures", f"roots 4 {b}",
                               cli("roots", 4, "--precision-bits", b, "--format", "json")))

    def enclosure_docs(self, results: dict) -> list:
        return [_json(results[f"roots 4 {b}"]) for b in self.bits]

    def check(self, results: dict) -> list:
        problems = checkers.check_pipeline(
            [_json(results[f"pipeline-k4 {b}"]) for b in self.bits])
        for doc in self.enclosure_docs(results):
            problems += checkers.check_roots(doc)
        return problems


# ---------------------------------------------------------------------------
# exact: big integers over Z, with no ball arithmetic
# ---------------------------------------------------------------------------

FAR_JITTER = 150
FAR_VALUES = ((2, 19000), (2, -19000), (3, 14000), (3, -30000), (4, 13000),
              (4, -36000), (7, 13000), (10, -40000), (17, -45000), (25, 12000),
              (40, 13500), (40, -50000))  # all below 4300 decimal digits
# valid requests whose values have more than 4300 decimal digits; the CLI
# exits 3 on them (int -> str limit), independently of the seed
FAR_DIGIT_LIMIT = ((4, 20000), (40, 25000))
WINDOWS = ((4, -2500, 2500), (40, -3000, 1500))
SCANS = ((4, -3000, 3000), (3, -2000, 2000))
SOLVE_PM = ((3, 4, 1000), (2, 6, 800))
POWERS = ((2, -600, 0, 5), (2, 0, 600, 5), (4, -1000, -1, 10), (4, 0, 400, 10))  # (k, lo, hi, shift)
RANGE_JITTER = 50


class Exact(Workload):
    name = "exact"
    groups = ("kfib_far", "scans", "powers")

    def __init__(self, rng, scratch: Path):
        def jit(x, d=RANGE_JITTER):
            return x + rng.randint(-d, d)

        self.far = [(k, n + rng.randint(-FAR_JITTER, FAR_JITTER)) for k, n in FAR_VALUES]
        self.far += list(FAR_DIGIT_LIMIT)
        ops = [Op("kfib_far", f"kfib {k} {n}", cli("kfib", k, n)) for k, n in self.far]
        for k, lo, hi in WINDOWS:
            lo, hi = jit(lo), jit(hi)
            ops.append(Op("scans", f"window {k}", cli("window", k, lo, hi, "--format", "json")))
        for k, lo, hi in SCANS:
            ops.append(Op("scans", f"scan {k}", cli("scan", k, jit(lo), jit(hi),
                                                    "--repeats-only", "--format", "json")))
        for k, l, r in SOLVE_PM:
            m_range = f"{jit(-r)}..{jit(r)}"
            n_range = f"{jit(-r)}..{jit(r)}"
            ops.append(Op("scans", f"solve-pm {k} {l}",
                          cli("solve-pm", k, l, m_range, n_range, "--format", "json")))
        for k, lo, hi, shift in POWERS:
            s = rng.randint(-shift, shift)
            ops.append(Op("powers", f"powers {k} {lo}..{hi}",
                          cli("powers", k, lo + s, hi + s, "--format", "json")))
        # every operation starts from empty caches, as a fresh CLI process does
        self.ops = [replace(op, cold=True) for op in ops]
        self.probe = None

    def known_fault(self, label: str, res: Result) -> bool:
        kind, k, n = (label.split() + ["", ""])[:3]
        return kind == "kfib" and checkers.is_digit_limit_failure(int(k), int(n), res.rc, res.err)

    def enclosure_docs(self, results: dict) -> list:
        # exact publishes no enclosure: `roots 4`, run once after timing and
        # tracing have stopped, stands in so that the metric exists here too
        if self.probe is None:
            self.probe = _json(cli("roots", 4, "--format", "json")())
        return [self.probe]

    def check(self, results: dict) -> list:
        problems = checkers.check_roots(self.enclosure_docs(results)[0])
        for k, n in self.far:
            res = results[f"kfib {k} {n}"]
            if res.ok:
                problems += checkers.check_far_value(k, n, res.value)
        checks = {"window": checkers.check_window, "scan": checkers.check_scan,
                  "solve-pm": checkers.check_solve_pm, "powers": checkers.check_powers}
        for label, res in results.items():
            kind = label.split()[0]
            if kind in checks:
                problems += checks[kind](_json(res))
        return problems


WORKLOADS = {w.name: w for w in (Roots, PipelineK4, Exact)}
