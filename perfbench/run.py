"""Benchmark of imcrystal: cold `verify` suites and a seeded query stream.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Run it from the repository root; it imports the package from ./src only.
Workloads (see README.md for why each was chosen):
  module     `imcrystal verify module` at default bounds, one fresh interpreter;
  operators  verify confluence, relations, form, crystal and the two
             --corrupt controls, each in its own fresh interpreter in turn;
  queries    one interpreter answers a seeded stream of single CLI requests,
             closed loop, one client.

Every child runs alone, one after another.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs the workload once untraced and
once traced and prints the per-layer metrics.  Each operation's output is
checked against the known answer in reference.json and, for queries,
against independent oracles; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracer import TRACED  # noqa: E402

WORKLOADS = ("module", "operators", "queries")
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# traced name -> the stats reported for it
LAYER_STATS = {
    "qcoeff.Coeff.mul": ("calls", "self_s"),
    "qcoeff.QRat.mul": ("calls", "self_s"),
    "qcoeff.Coeff.add": ("calls", "self_s"),
    "qcoeff.QRat.add": ("calls", "self_s"),
    "qcoeff.QRat.truediv": ("calls", "self_s"),
    "qalgebra.normalize_word": ("calls", "self_s"),
    "qalgebra.Element.add": ("calls", "self_s"),
    "qalgebra.Element.mul": ("calls", "self_s"),
    "qalgebra.parse_element": ("incl_s",),
    "qalgebra.format_element": ("incl_s",),
    "kashiwara.omega_mono": ("calls", "self_s", "miss_share"),
    "kashiwara.check_kashiwara_relation": ("incl_s",),
    "kashiwara.omega_psi_closed": ("incl_s",),
    "pairing.pair": ("calls", "incl_s"),
    "pairing.gram": ("incl_s",),
    "pairing.lattice_membership_probe": ("incl_s",),
    **{f"verma.{fn}": ("calls", "incl_s", "self_s") for fn in TRACED["verma"]},
    "verma.simplicity_probe": ("calls", "incl_s", "self_s", "xplus_calls", "xplus_nonzero_share"),
    "crystal.verify_crystal_axioms": ("incl_s",),
    "crystal.split_converse_check": ("incl_s",),
    "crystal.reduce_mod_q": ("calls", "self_s"),
    **{f"cli.{fn}": ("incl_s",) for fn in TRACED["cli"] if fn.startswith("suite_")},
    "cli.main": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "miss_share": "share",
              "xplus_calls": "count", "xplus_nonzero_share": "share"}
PER_LAYER = {
    **{f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_STATS.items()
       for stat in stats},
    **{f"{prefix}.cache_entries": "count"
       for prefix in ("qalgebra", "kashiwara", "pairing", "verma.diff", "verma.xplus")},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a wrong answer of the program)."""


def _spawn(args: list[str]) -> tuple[dict, float]:
    """Run child.py in a fresh interpreter; (its JSON result, spawn-to-exit seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    latency = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:1]} exited {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(lines[-1]), latency


def _percentile(values: list[float], q: float) -> float:
    """The sample at sorted index ceil((n - 1) q), never an interpolation."""
    ordered = sorted(values)
    return ordered[math.ceil((len(ordered) - 1) * q)]


def _merge_layers(layers: list[dict]) -> dict:
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            out[key] = out.get(key, 0) + value
    return out


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, root: str, reference: dict,
                 tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.reference = reference
        self.tiny = tiny
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed operation
        self.repeatable = True
        self.oracles_done = False

    # -- one pass over the workload -----------------------------------------

    def suite_pass(self, trace: bool) -> dict:
        suite_seed = self.seed % inputs.SUITE_SEEDS
        wall, latency, rss, layers = 0.0, 0.0, 0.0, []
        complete = True
        for op, invocation in enumerate(inputs.invocations(self.workload, self.tiny)):
            key = " ".join(invocation)
            spec = {"mode": "suite", "root": self.root, "trace": trace, "op": op,
                    "argv": inputs.suite_argv(invocation, suite_seed),
                    "spans": self._spans_path(op) if trace else None}
            self.attempted += 1
            try:
                result, spawn_to_exit = _spawn([json.dumps(spec)])
            except BenchError as err:
                self.failures.append(f"{key}: {err}")
                complete = False
                continue
            wall += result["wall_s"]
            latency += spawn_to_exit
            rss = max(rss, result["peak_rss_mb"])
            if result["layers"] is not None:
                layers.append(result["layers"])
            why = self._check_suite(key, suite_seed, result)
            if why:
                self.failures.append(f"{key}: {why}")
        # one request: every verify process of the pass, spawn to exit, in turn
        return {"wall_s": wall, "latencies": {0: latency} if complete else {},
                "peak_rss_mb": rss, "layers": _merge_layers(layers)}

    def _check_suite(self, key: str, suite_seed: int, result: dict) -> str | None:
        want = self.reference["suites"][key]
        if result["exit"] != want["exit"]:
            return f"exit {result['exit']}, expected {want['exit']} {result['stderr'][-300:]}"
        reports = result["reports"]
        if not reports or len(reports) != 1 or reports[0]["seed"] != suite_seed:
            return "no single JSON report for the suite seed"
        got = [[r["name"], r["status"], r["checked"]] for r in reports[0]["results"]]
        expected = [[name, status, checked if isinstance(checked, int) else checked[suite_seed]]
                    for name, status, checked in want["results"]]
        if got != expected:
            return f"results {got} differ from the reference {expected}"
        return None

    def query_pass(self, trace: bool, order: int) -> dict:
        length = inputs.TINY_STREAM_LENGTH if self.tiny else inputs.STREAM_LENGTH
        spec = {"mode": "queries", "root": self.root, "trace": trace, "seed": self.seed,
                "order": order, "length": length,
                "spans": self._spans_path(0) if trace else None,
                "oracles": not self.oracles_done}
        self.oracles_done = True  # every pass runs the same requests
        self.attempted += length
        try:
            result, _ = _spawn([json.dumps(spec)])
        except BenchError as err:
            self.failures.extend([f"query stream: {err}"] * length)
            return {"wall_s": None, "latencies": {}, "peak_rss_mb": 0.0, "layers": {}}
        digests = self.reference["pool"]["digests"]
        oracle = result["oracle_failures"]
        indices = inputs.stream(self.seed, length, order)
        for op, index in enumerate(indices):
            if result["exits"][op] != 0:
                self.failures.append(f"query {op}: exit {result['exits'][op]}")
            elif result["digests"][op] != digests[index]:
                self.failures.append(f"query {op} (pool {index}): output differs from the reference")
            elif str(op) in oracle:
                self.failures.append(f"query {op} (pool {index}): {oracle[str(op)]}")
        return {"wall_s": result["wall_s"], "latencies": dict(zip(indices, result["latencies"])),
                "peak_rss_mb": result["peak_rss_mb"], "layers": result["layers"] or {}}

    def one_pass(self, trace: bool, order: int = 0) -> dict:
        if self.workload == "queries":
            return self.query_pass(trace, order)
        return self.suite_pass(trace)

    def _spans_path(self, proc: int) -> str:
        os.makedirs(os.path.join(self.root, OUT_DIR, "spans"), exist_ok=True)
        return os.path.join(self.root, OUT_DIR, "spans", f"{self.workload}-{proc}.spans")

    # -- whole runs -----------------------------------------------------------

    def setup_times(self, probes: int) -> list[float]:
        """Import time of a fresh interpreter; a first unmeasured probe compiles bytecode."""
        times = []
        for i in range(probes + 1):
            result, _ = _spawn(["setup", self.root])
            if i:
                times.append(result["setup_s"])
        return times

    def end_to_end(self, seconds: float) -> tuple[dict, str]:
        setup = self.setup_times(SETUP_PROBES)
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.one_pass(trace=False, order=len(passes)))
            elapsed = time.perf_counter() - t0
            # stop before a further pass would overrun the requested time
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        # every pass repeats the same operations (queries in another order, so
        # an operation's latency does not hinge on one cache-filling order): an
        # operation's latency is its median over the passes, and the
        # percentiles range over operations
        per_op: dict[int, list[float]] = {}
        for p in passes:
            for op, latency in p["latencies"].items():
                per_op.setdefault(op, []).append(latency)
        latencies_ms = [1e3 * statistics.median(xs) for xs in per_op.values()]
        walls = [p["wall_s"] for p in passes if p["latencies"]]
        if not walls:
            raise BenchError("no operation of the workload completed")
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "query_p50_ms": _percentile(latencies_ms, 0.50),
            "query_p99_ms": _percentile(latencies_ms, 0.99),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }, (f"{len(passes)} passes, {len(latencies_ms)} operations, "
            f"{sum(map(len, per_op.values()))} timed calls")

    def per_layer(self) -> tuple[dict, str]:
        self.setup_times(0)
        plain = self.one_pass(trace=False)
        traced = self.one_pass(trace=True)
        layers = traced["layers"]
        if not (plain["latencies"] and traced["latencies"]) or not layers:
            raise BenchError("no operation of the workload completed")
        out = {key: layers[key] for key in PER_LAYER if key in layers}
        # only a miss inserts into the omega memo, once
        calls = layers["kashiwara.omega_mono.calls"]
        out["kashiwara.omega_mono.miss_share"] = (
            layers["kashiwara.cache_entries"] / calls if calls else 0.0)
        calls = layers["verma.simplicity_probe.xplus_calls"]
        out["verma.simplicity_probe.xplus_nonzero_share"] = (
            layers["verma.simplicity_probe.xplus_nonzero"] / calls if calls else 0.0)
        out["trace.wall_s"] = traced["wall_s"]
        out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return out, self._check_counts(out)

    def _check_counts(self, metrics: dict) -> str:
        """Counts must repeat exactly for the same code, inputs and seed."""
        counts = {k: metrics[k] for k, unit in PER_LAYER.items() if unit == "count"}
        h = hashlib.sha256()
        for base in ("src", os.path.relpath(HERE, self.root)):
            for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(self.root, base))):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith((".py", ".json")):
                        with open(os.path.join(dirpath, name), "rb") as f:
                            h.update(name.encode() + f.read())
        tag = f"{self.workload}-{'tiny' if self.tiny else 'full'}-{self.seed}-{h.hexdigest()[:16]}"
        path = os.path.join(self.root, OUT_DIR, "counts", f"{tag}.json")
        if os.path.exists(path):
            with open(path) as f:
                before = json.load(f)
            moved = sorted(k for k in counts if counts[k] != before.get(k))
            if moved:
                self.repeatable = False
                return f"counts differ from an earlier traced run of this code: {moved}"
            return "counts repeat an earlier traced run exactly"
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f)
        return "counts recorded for the next traced run to repeat"


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        reference: dict, tiny: bool = False) -> tuple[dict, list[str]]:
    """The result object of one run, and notes for the human-readable lines."""
    bench = Run(workload, seed, root, reference, tiny)
    metrics, note = bench.per_layer() if trace else bench.end_to_end(seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not bench.failures and bench.repeatable,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return result, [note] + bench.failures[:20]


def _load_reference(root: str) -> dict:
    if not os.path.isfile(os.path.join(root, "src", "imcrystal", "cli.py")):
        raise BenchError(f"no imcrystal sources under {root}/src; run from the repository root")
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def _environment() -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{platform.machine()} {platform.system()}")


def self_test(root: str) -> int:
    """Tiny runs of every workload: metric names and units, counts, and the gate."""
    reference = _load_reference(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[section]}
        if got != units:
            problems.append(f"BENCHMARK.json {section} differs from run.py: "
                            f"{sorted(set(got.items()) ^ set(units.items()))}")
    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            results = [run(workload, 0, 0, trace, root, reference, tiny=True)[0]
                       for _ in range(2 if trace else 1)]
            result = results[0]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != units:
                problems.append(f"{workload} trace={trace}: metrics {sorted(printed)} "
                                f"lack {sorted(set(units) - set(printed))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
            if trace:
                counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                          for r in results]
                if counts[0] != counts[1]:
                    problems.append(f"{workload}: counts differ between two traced runs")
    # flip one known answer: a control that must fail is expected to pass
    flipped = json.loads(json.dumps(reference))
    key = " ".join(inputs.invocations("operators", tiny=True)[4])
    flipped["suites"][key]["exit"] = 0
    for result in flipped["suites"][key]["results"]:
        result[1] = "pass"
    result, _ = run("operators", 0, 0, False, root, flipped, tiny=True)
    if not result["failed"] or result["correct"]:
        problems.append("a flipped known answer did not count as a failed operation")
    for line in problems:
        print(f"self-test: {line}")
    print(f"self-test: {'FAILED' if problems else 'ok'} ({_environment()})")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        if args.self_test:
            return self_test(root)
        if args.workload is None:
            parser.error("--workload is required")
        reference = _load_reference(root)
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
                            reference)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {_environment()}")
    for note in notes:
        print(f"# {note}")
    share = result["failed"] / result["attempted"] if result["attempted"] else math.nan
    print(f"failed_share {share:.6g} share ({result['failed']} of {result['attempted']} ops)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
