"""Inputs of every workload, made from the benchmark seed.

Suite workloads run `imcrystal verify` invocations at their default bounds
(or at tiny bounds for the self-test).  The randomized suites get the suite
seed `seed % SUITE_SEEDS`; reference.json holds the known answer of every
invocation for each of those suite seeds.

The `queries` workload draws a fixed pool of CLI requests once from
POOL_SEED; the output digest of every pool entry is in reference.json.  A
stream is the pool in a seeded order: every seed runs the same work, so
runs differ only in how the caches fill, and every answer is known.  The
passes of one run use different orders of the same seed.
"""

from __future__ import annotations

import hashlib
import random

SUITE_SEEDS = 64

MODULE = (("verify", "module"),)
OPERATORS = (
    ("verify", "confluence"),
    ("verify", "relations"),
    ("verify", "form"),
    ("verify", "crystal"),
    ("verify", "form", "--corrupt", "gram"),
    ("verify", "crystal", "--corrupt", "lattice"),
)
# bounds of the self-test's tiny runs, appended to each invocation
TINY_BOUNDS = {
    "module": ("--h", "1", "--max-length", "1", "--window", "-1:1", "--m", "-1:1"),
    "confluence": ("--max-length", "2", "--window", "-1:1"),
    "relations": ("--max-length", "1", "--window", "-1:1", "--m", "-1:1"),
    "form": ("--max-length", "1", "--window", "-1:1"),
    "crystal": ("--max-length", "1", "--window", "-1:1", "--m", "-1:1"),
}
TINY_STREAM_LENGTH = 40


def invocations(workload: str, tiny: bool = False) -> list[tuple[str, ...]]:
    """The verify invocations of a suite workload, without --seed and --format."""
    base = MODULE if workload == "module" else OPERATORS
    return [argv + TINY_BOUNDS[argv[1]] if tiny else argv for argv in base]


def suite_argv(invocation: tuple[str, ...], suite_seed: int) -> list[str]:
    return [*invocation, "--seed", str(suite_seed), "--format", "json"]


def digest(code: int, out: str) -> str:
    """Digest of one query's exit code and printed output."""
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:12]


POOL_SEED = 20181206
POOL_SIZE = 2000
STREAM_LENGTH = 2000

KINDS = ("normalize", "omega", "pair", "gram", "act")
ACT_GENERATORS = ("x+", "x-", "h", "K", "D", "E0", "E1", "F0", "F1", "K0", "K1")


def _word(rng: random.Random, max_factors: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(rng.randint(1, max_factors))]


def _text(word: list[int]) -> str:
    return "".join(f"x[{n}]" for n in word)


def _query(rng: random.Random) -> list[str]:
    kind = rng.choice(KINDS)
    if kind == "normalize":
        return ["normalize", _text(_word(rng, 6, -3, 3))]
    if kind == "omega":
        word = _word(rng, 6, -3, 3)
        return ["omega", "--kind", rng.choice(("psi", "phi")), "-p", str(rng.randint(-3, 3)),
                _text(word)]
    if kind == "pair":
        # the right side permutes the left one, so both have the same weight
        # and the value is not zero by weight alone
        word = _word(rng, 6, -3, 3)
        other = word[:]
        rng.shuffle(other)
        return ["pair", _text(word), _text(other)]
    if kind == "gram":
        length = rng.randint(1, 3)
        return ["gram", "--length", str(length), "--degree",
                str(rng.randint(-2 * length, 2 * length)), "--window", "-2:2"]
    gen = rng.choice(ACT_GENERATORS)
    k = rng.choice((-2, -1, 1, 2)) if gen == "h" else rng.randint(-2, 2)
    h = rng.choice((-3, -2, -1, 1, 2, 3))
    return ["act", "--gen", gen, "-k", str(k), "--h", str(h), _text(_word(rng, 3, -2, 2))]


def pool() -> list[list[str]]:
    """Every request a stream may contain, in pool order."""
    rng = random.Random(POOL_SEED)
    return [_query(rng) for _ in range(POOL_SIZE)]


def stream(seed: int, length: int = STREAM_LENGTH, order: int = 0) -> list[int]:
    """Pool indices of stream `order` of `seed`, in request order; no index repeats."""
    return random.Random(f"{seed}/{order}").sample(range(POOL_SIZE), length)
