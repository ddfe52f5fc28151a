"""One fresh interpreter of the benchmark.

  python3 child.py setup <root>      time `import imcrystal.cli` and nothing else
  python3 child.py <spec-json>       spec["mode"] is one of
    suite    run one `imcrystal verify ...` through cli.main and time it;
    queries  run a query stream through cli.main, one request at a time.

The package is imported from <root>/src only.  The last line of stdout is a
JSON object with the measurements; the CLI's own output is captured.
Only sys and time are imported before the setup timing, so it measures what
a one-shot `imcrystal` call pays for its imports.
"""

import sys
import time


def _import_cli(root: str):
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    import imcrystal.cli as cli

    setup_s = time.perf_counter() - t0
    expected = f"{root}/src/imcrystal/"
    if not cli.__file__.startswith(expected):
        raise SystemExit(f"imcrystal was imported from {cli.__file__}, not {expected}")
    return cli, setup_s


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured: (exit code, out, err)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _start_trace(spec: dict):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op[0] = spec.get("op", 0)
    return tracer


def _finish_trace(tracer, spec: dict) -> dict | None:
    """Per-layer counts of this process; read before any oracle runs."""
    if tracer is None:
        return None
    from tracer import cache_entries

    tracer.uninstall()
    if spec.get("spans"):
        tracer.write(spec["spans"])
    return {**tracer.summary(), **cache_entries()}


def run_suite(spec: dict) -> dict:
    cli, _ = _import_cli(spec["root"])
    tracer = _start_trace(spec)
    t0 = time.perf_counter()
    code, out, err = _call(cli, spec["argv"])
    wall_s = time.perf_counter() - t0
    layers = _finish_trace(tracer, spec)
    import json

    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError):
        reports = None
    return {"exit": code, "wall_s": wall_s, "reports": reports, "stderr": err[-2000:],
            "peak_rss_mb": _peak_rss_mb(), "layers": layers}


def _oracle_failure(cli, argv: list[str], out: str) -> str | None:
    """Check one query against an independent computation; None when it agrees."""
    import re

    from imcrystal import pairing
    from imcrystal.kashiwara import omega_psi_closed
    from imcrystal.qalgebra import Element, Weight, format_element, normalize_word, parse_element

    text = out.rstrip("\n")
    if argv[0] == "normalize":
        word = tuple(int(n) for n in re.findall(r"x\[(-?\d+)\]", argv[1]))
        ref = normalize_word(word, "rightmost")
        if format_element(ref) != text:
            return "disagrees with the rightmost rewriting strategy"
        if parse_element(text) != ref:
            return "printed form does not parse back to the same element"
    elif argv[0] == "omega" and argv[2] == "psi":
        p = int(argv[4])
        ref = Element.zero()
        for mono, c in parse_element(argv[5]).items():
            ref = ref + omega_psi_closed(p, mono) * c
        if format_element(ref) != text:
            return "disagrees with omega_psi_closed"
    elif argv[0] == "pair":
        code, swapped, _ = _call(cli, ["pair", argv[2], argv[1]])
        if code != 0 or swapped != out:
            return "pair is not symmetric"
    elif argv[0] == "gram":
        g = pairing.gram(Weight(int(argv[2]), int(argv[4])), (-2, 2))
        n = len(g.basis)
        if any(g.entries[i][j] != g.entries[j][i] for i in range(n) for j in range(i)):
            return "Gram matrix is not symmetric"
    return None


def run_queries(spec: dict) -> dict:
    cli, _ = _import_cli(spec["root"])
    import contextlib
    import io

    from inputs import digest, pool, stream

    requests = pool()
    order = stream(spec["seed"], spec["length"], spec["order"])
    tracer = _start_trace(spec)
    latencies, results = [], []
    t0 = time.perf_counter()
    for op, index in enumerate(order):
        if tracer is not None:
            tracer.op[0] = op
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(requests[index])
        latencies.append(time.perf_counter() - t)
        results.append((code, out.getvalue()))
    wall_s = time.perf_counter() - t0
    layers = _finish_trace(tracer, spec)
    peak = _peak_rss_mb()

    digests, oracle = [], {}
    for op, (index, (code, out)) in enumerate(zip(order, results)):
        digests.append(digest(code, out))
        if code == 0 and spec["oracles"]:
            why = _oracle_failure(cli, requests[index], out)
            if why:
                oracle[op] = why
    return {"wall_s": wall_s, "latencies": latencies, "digests": digests, "exits":
            [code for code, _ in results], "oracle_failures": oracle,
            "peak_rss_mb": peak, "layers": layers}


def main() -> None:
    if sys.argv[1] == "setup":
        # no json before the timed import: the package would find it loaded
        setup_s = _import_cli(sys.argv[2])[1]
        sys.stdout.write(f'{{"setup_s": {setup_s!r}}}\n')
        return
    import json

    spec = json.loads(sys.argv[1])
    result = run_suite(spec) if spec["mode"] == "suite" else run_queries(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
