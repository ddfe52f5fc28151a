"""Record the known answers of every benchmark input into reference.json.

  python3 perfbench/record.py        (from the repository root)

For each verify invocation of the `module` and `operators` workloads, at
default and at tiny bounds, it records the exit code and every result's
(name, status, checked) for each suite seed; a `checked` that depends on
the seed is stored as a list indexed by the suite seed.  For the query pool
it records the output digest of every request.  Run it only when the
program's outputs change on purpose: the benchmark then fails every run
whose outputs differ from these answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from imcrystal import cli  # noqa: E402

import inputs  # noqa: E402

# suites whose work depends on --seed; the others only echo it
SEEDED = ("confluence", "form")


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _expected(invocation: tuple[str, ...]) -> dict:
    seeds = range(inputs.SUITE_SEEDS) if invocation[1] in SEEDED else [0]
    runs = []
    for seed in seeds:
        code, out = _run(inputs.suite_argv(invocation, seed))
        (report,) = json.loads(out)["reports"]
        runs.append((code, [(r["name"], r["status"], r["checked"]) for r in report["results"]]))
    codes = {code for code, _ in runs}
    shapes = {tuple((name, status) for name, status, _ in results) for _, results in runs}
    if len(codes) != 1 or len(shapes) != 1:
        raise SystemExit(f"{' '.join(invocation)}: exit code or statuses depend on the seed")
    results = []
    for i, (name, status, _) in enumerate(runs[0][1]):
        checked = [seed_results[i][2] for _, seed_results in runs]
        results.append([name, status, checked[0] if len(set(checked)) == 1 else checked])
    return {"exit": runs[0][0], "results": results}


def main() -> None:
    suites = {}
    for workload in ("operators", "module"):
        for tiny in (True, False):
            for invocation in inputs.invocations(workload, tiny):
                suites[" ".join(invocation)] = _expected(invocation)
                print("recorded", " ".join(invocation), file=sys.stderr)
    digests = []
    for argv in inputs.pool():
        code, out = _run(argv)
        if code != 0:
            raise SystemExit(f"pool request {argv} exits {code}")
        digests.append(inputs.digest(code, out))
    reference = {
        "suite_seeds": inputs.SUITE_SEEDS,
        "suites": suites,
        "pool": {"seed": inputs.POOL_SEED, "size": inputs.POOL_SIZE, "digests": digests},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
