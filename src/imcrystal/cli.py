"""Command-line surface: parsing, operators, pairing, module actions, and
the verification suites with machine-readable reports.

Exit codes are fixed for scripting: 0 pass, 1 verification failure,
2 parse or usage error, 3 domain error.  Randomized suites take an
explicit seed (default DEFAULT_SEED) and identical inputs produce
byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from typing import Callable, Iterator

from .check import Check
from .qcoeff import Coeff, CoefficientError, format_coeff, residue_mod_q2
from .qalgebra import (
    Element,
    InhomogeneousError,
    Monomial,
    ParseError,
    Weight,
    enumerate_all,
    enumerate_basis,
    find_ascent,
    format_element,
    memo,
    normalize_word,
    parse_element,
    rewrite_once,
    termination_measure,
)
from . import kashiwara, pairing
from .kashiwara import PSI, check_kashiwara_relation, omega_apply, omega_mono, omega_psi_closed
from .verma import (
    GENERATORS,
    HighestWeight,
    VermaVector,
    _h_scalar,
    act_D,
    act_h,
    act_K,
    act_xminus,
    act_xplus,
    component_swap_map,
    current_commutator,
    format_vector,
    injection_map,
    nilpotency_probe,
    projection_map,
    simplicity_probe,
    verify_intertwining,
)
from .crystal import (
    CrystalClass,
    LatticeDesc,
    canonical_split,
    corrupted_lattice,
    crystal_image_x,
    diagonal_control_split,
    split_converse_check,
    verify_crystal_axioms,
)

DEFAULT_SEED = 1729

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


class SuiteReport:
    __slots__ = ("suite", "bounds", "seed", "results")

    def __init__(self, suite: str, bounds: dict, seed: int, results: list[Check]):
        self.suite, self.bounds, self.seed, self.results = suite, bounds, seed, results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "bounds": self.bounds,
            "seed": self.seed,
            "status": "pass" if self.passed else "fail",
            "results": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# random generators for the property suites


def _random_word(rng: random.Random, max_length: int, window: tuple[int, int]):
    k = rng.randint(0, max_length)
    return tuple(rng.randint(window[0], window[1]) for _ in range(k))


def _random_coeff(rng: random.Random) -> Coeff:
    c = Coeff.zero()
    for _ in range(rng.randint(1, 2)):
        c = c + Coeff.q_power(rng.randint(-3, 3)) * rng.choice([-3, -2, -1, 1, 2, 3])
    return c


def _random_homogeneous(
    rng: random.Random, window: tuple[int, int], max_length: int, weight: Weight | None = None
) -> Element:
    if weight is None:
        k = rng.randint(1, max_length)
        d = sum(rng.randint(window[0], window[1]) for _ in range(k))
        weight = Weight(k, d)
    basis = enumerate_basis(weight.length, window, weight.degree)
    out = Element({mono: _random_coeff(rng) for mono in basis if rng.random() < 0.6})
    if out.is_zero and basis:
        out = Element({basis[0]: Coeff.one()})
    return out


def _weight(e: Element) -> Weight | str:
    """The weight of an operator image, or "zero" or "mixed" when it has
    none: a wrong image is then a witness, not a domain error."""
    if e.is_zero:
        return "zero"
    try:
        return e.weight()
    except InhomogeneousError:
        return "mixed"


# ---------------------------------------------------------------------------
# suites


def _rewrite_steps(word: Monomial) -> Iterator[tuple[Monomial, Monomial]]:
    """The (word, piece) rewrites of an instrumented walk from `word`, at the
    leftmost ascent, for at most 500 ascents."""
    stack = [word]
    seen = 0
    while stack and seen < 500:
        w = stack.pop()
        i = find_ascent(w, "leftmost")
        if i is None:
            continue
        seen += 1
        for _, piece in rewrite_once(w, i):
            yield w, piece
            stack.append(piece)


def suite_confluence(
    seed: int = DEFAULT_SEED,
    samples: int = 200,
    max_length: int = 5,
    window: tuple[int, int] = (-3, 3),
) -> SuiteReport:
    rng = random.Random(seed)
    expected = Element({(1, 0): Coeff.q_power(4)})
    serre = Check("serre1-instance").run(
        [normalize_word((0, 1))],
        lambda got: None if got == expected else "x[0]x[1] did not rewrite to q^2*x[1]x[0]",
    )
    words = [_random_word(rng, max_length, window) for _ in range(samples)]

    def disagree(w: Monomial) -> str | None:
        if normalize_word(w, "leftmost") != normalize_word(w, "rightmost"):
            return f"strategies disagree on x{list(w)}"

    def no_decrease(step: tuple[Monomial, Monomial]) -> str | None:
        # every rewrite strictly decreases the measure
        w, piece = step
        if not termination_measure(piece) < termination_measure(w):
            return f"measure did not decrease: x{list(w)} -> x{list(piece)}"

    probe = Check("confluence-probe").run(words, disagree)
    measure = Check("termination-measure").run(
        (step for w in words for step in _rewrite_steps(w)), no_decrease
    )
    return SuiteReport(
        "confluence",
        {"samples": samples, "max_length": max_length, "window": list(window)},
        seed,
        [serre, probe, measure],
    )


# bounds of the closed-formula oracle and the locality check in suite_relations
ORACLE_MAX_LENGTH = 3
ORACLE_P = (-5, 5)


def suite_relations(
    comp_range: tuple[int, int] = (-2, 2),
    max_length: int = 2,
    window: tuple[int, int] = (-2, 2),
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    results = [
        check_kashiwara_relation(rel, comp_range, max_length=max_length, window=window)
        for rel in kashiwara.RELATIONS
    ]
    monos = enumerate_all(ORACLE_MAX_LENGTH, window)

    def closed_differs(case: tuple[Monomial, int]) -> str | None:
        mono, p = case
        if omega_psi_closed(p, mono) != omega_mono(PSI, p, mono):
            return f"closed formula disagrees at p={p}, x{list(mono)}"

    def off_support(case: tuple[Monomial, int]) -> Iterator[str]:
        mono, p = case
        img = omega_mono(PSI, p, mono)
        if img.is_zero:
            return
        if p < -max(mono):
            yield f"psi[{p}] should kill x{list(mono)} (support bound)"
        w = Weight(len(mono) - 1, sum(mono) + p)
        if (got := _weight(img)) != w:
            yield f"psi[{p}] on x{list(mono)}: weight {got} expected {w}"

    p_lo, p_hi = ORACLE_P
    results.append(Check("oracle-psi-closed").run(
        ((mono, p) for mono in monos for p in range(p_lo, p_hi + 1)), closed_differs
    ))
    results.append(Check("locality-support").run(
        ((mono, p) for mono in monos if mono for p in range(p_lo - 2, p_hi + 3)), off_support
    ))
    return SuiteReport(
        "relations",
        {
            "components": list(comp_range),
            "max_length": max_length,
            "window": list(window),
            "oracle_max_length": ORACLE_MAX_LENGTH,
            "oracle_p": list(ORACLE_P),
        },
        seed,
        results,
    )


def suite_form(
    seed: int = DEFAULT_SEED,
    samples: int = 200,
    max_length: int = 3,
    window: tuple[int, int] = (-2, 2),
    corrupt: str | None = None,
) -> SuiteReport:
    rng = random.Random(seed)
    draws = []  # (a, b, m, c): b of the weight of a, c of a random weight
    for _ in range(samples):
        a = _random_homogeneous(rng, window, max_length)
        b = _random_homogeneous(rng, window, max_length, a.weight())
        m = rng.randint(window[0], window[1])
        draws.append((a, b, m, _random_homogeneous(rng, window, max_length)))

    def asymmetric(draw: tuple[Element, Element, int, Element]) -> str | None:
        a, b, _, _ = draw
        if pairing.pair(a, b) != pairing.pair(b, a):
            return f"asymmetric on {format_element(a)} | {format_element(b)}"

    def not_adjoint(draw: tuple[Element, Element, int, Element]) -> str | None:
        a, b, m, _ = draw
        lhs = pairing.pair(Element.monomial((m,)) * a, b)
        if lhs != pairing.pair(a, kashiwara.omega_at_one(PSI, -m, b)):
            return f"adjointness fails at m={m} on {format_element(a)}"

    def pairs_across(draw: tuple[Element, Element, int, Element]) -> str | None:
        a, _, _, c = draw
        if not pairing.pair(a, c).is_zero:
            return f"nonzero pairing across weights {a.weight()} vs {c.weight()}"

    def off_delta(case: tuple[int, tuple[int, int, pairing.GramMatrix]]) -> list[str]:
        i, (k, d, g) = case
        if corrupt == "gram" and i == 0:
            g.entries[0][0] = g.entries[0][0] + Coeff.q_power(2)
        return [f"weight ({k},{d}): {w}" for w in pairing.orthonormality_report(g).witnesses]

    def pairs_nonzero(case: tuple[Monomial, Monomial]) -> str | None:
        ma, mb = case
        v = pairing.pair(Element({ma: Coeff.one()}), Element({mb: Coeff.one()}))
        if not v.is_zero:
            return f"x{list(ma)} pairs x{list(mb)} to {format_coeff(v)}"

    # the fixture monomials lie in [-1, 1], so the probe window must cover it
    hull = (min(window[0], -1), max(window[1], 1))

    def misjudged(case: tuple[Monomial, bool]) -> str | None:
        mono, inside = case
        elem = Element({mono: Coeff.one() if inside else Coeff.q_power(-2)})
        pole = pairing.lattice_membership_probe(elem, hull)
        if inside and pole is not None:
            return f"x{list(mono)} rejected: {pole}"
        if not inside and pole is None:
            return f"q^-1 x{list(mono)} accepted by the probe"

    grams = (
        (k, d, g)
        for k in range(1, max_length + 1)
        for d in range(k * window[0], k * window[1] + 1)
        if (g := pairing.gram(Weight(k, d), window)).basis
    )
    monos = enumerate_all(max_length, window)
    results = [
        Check("symmetry-random").run(draws, asymmetric),
        Check("adjointness-random").run(draws, not_adjoint),
        Check("weight-orthogonality-random").run(
            (draw for draw in draws if draw[3].weight() != draw[0].weight()), pairs_across
        ),
        Check("gram-orthonormality").run(enumerate(grams), off_delta),
        Check("cross-length-zero").run(
            ((ma, mb) for ma in monos for mb in monos if len(ma) != len(mb)), pairs_nonzero
        ),
        Check("frozen-value").run(
            [pairing.pair(Element.monomial((1, 1)), Element.monomial((1, 1)))],
            lambda value: None if value == Coeff.one() + Coeff.q_power(4)
            else f"(x[1]x[1], x[1]x[1]) = {format_coeff(value)} expected 1+q^2",
        ),
        Check("membership-probe").run(
            ((mono, inside) for mono in enumerate_all(2, (-1, 1)) if mono
             for inside in (True, False)),
            misjudged,
        ),
    ]
    return SuiteReport(
        "form",
        {"samples": samples, "max_length": max_length, "window": list(window),
         "corrupt": corrupt},
        seed,
        results,
    )


# the raising indices n of the (x+[n])^t probes in suite_module
NILPOTENCY_RANGE = (-3, 3)


def suite_module(
    weights: tuple[int, ...] = (1, 2, -1),
    d: int = 0,
    max_length: int = 3,
    window: tuple[int, int] = (-2, 2),
    comp_range: tuple[int, int] = (-2, 2),
    seed: int = DEFAULT_SEED,
    corrupt: str | None = None,
) -> SuiteReport:
    """The Drinfeld relations, weight grading, local nilpotency and
    simplicity of M(h, d) on every monomial sample within the bounds, then
    the intertwining of the canonical module maps.

    Each weight-free image is computed once per monomial, and every other
    image once per sample.  The Heisenberg generators h[k] and the lowering
    generators x-[l] never read the weight h, so the images of a monomial
    under h[k], h[k]h[l] and x-[l], and both sides of relation-h-xminus,
    are the same elements on every M(h): they are computed once, then
    wrapped as vectors of each M(h, d).  For each weight, a table adds the
    images under x+[k], the Cartan currents, K^-1 and D^-1, with exactly
    the indices the checks read.  Both sides of each identity are still
    computed separately.  Each weight fills its own row of results, one
    run per sample, and the rows are folded in weight order, so every count
    and witness is where a loop over the weights would put it.
    """
    names = (
        "relation-h-h", "relation-h-xminus", "relation-K-conjugation",
        "relation-D-conjugation", "relation-xplus-xminus",
        "weight-decomposition", "local-nilpotency", "simplicity-probe",
    )
    rows = [[Check(name) for name in names] for _ in weights]
    modules = [(HighestWeight(h, d),) for h in weights]
    ks = range(comp_range[0], comp_range[1] + 1)
    nonzero_pairs = [(k, l) for k in ks if k != 0 for l in ks if l != 0]
    sums = sorted({k + l for k in ks for l in ks})
    nilp_range = range(NILPOTENCY_RANGE[0], NILPOTENCY_RANGE[1] + 1)
    for mono in enumerate_all(max_length, window):
        k0, d0 = len(mono), sum(mono)

        # the weight-free table, computed once on the first module, whose
        # weight h[k] and x-[l] never read; hh and hx hold the two sides
        # that every M(h) compares
        free = VermaVector(modules[0], {0: Element.monomial(mono)})
        free_h = {k: act_h(k, free) for k in ks if k != 0}
        free_xm = {l: act_xminus(l, free) for l in sorted({*ks, *sums})}
        hh = {(k, l): act_h(k, free_h[l]) for k, l in nonzero_pairs}
        hx = {
            (k, l): (act_h(k, free_xm[l]),
                     act_xminus(l, free_h[k]) + free_xm[k + l] * _h_scalar(k))
            for k, l in nonzero_pairs
        }

        for M, row in zip(modules, rows):
            rel_hh, rel_hx, rel_k, rel_d, rel_px, weight_dec, nilp, simple = row
            v = VermaVector(M, free.components)
            tag = f"h={M[0].h}, x{list(mono)}"

            # the weight-free images as vectors of M, and the per-sample
            # table of the images that read the weight
            h_, xm = ({i: VermaVector(M, w.components) for i, w in table.items()}
                      for table in (free_h, free_xm))
            xp = {k: act_xplus(k, v) for k in sorted({*ks, *nilp_range})}
            cc = {p: current_commutator(p, v) for p in sums}
            k_inv, d_inv = act_K(v, -1), act_D(v, -1)

            def h_h(kl: tuple[int, int]) -> str | None:
                k, l = kl
                if hh[k, l] != hh[l, k]:
                    return f"[h_{k},h_{l}] nonzero on {tag}"

            def h_xminus(kl: tuple[int, int]) -> str | None:
                k, l = kl
                lhs, rhs = hx[kl]
                if lhs != rhs:
                    return f"[h_{k},x-_{l}] wrong on {tag}"

            def k_conjugation(k: int) -> str | None:
                if act_K(act_xminus(k, k_inv)) != xm[k] * Coeff.q_power(-4):
                    return f"K x-_{k} K^-1 wrong on {tag}"

            def d_conjugation(case: tuple[int, str]) -> str | None:
                k, sign = case
                act, image = (act_xminus, xm) if sign == "-" else (act_xplus, xp)
                if act_D(act(k, d_inv)) != image[k] * Coeff.q_power(2 * k):
                    return f"D x{sign}_{k} D^-1 wrong on {tag}"

            def xplus_xminus(kl: tuple[int, int]) -> str | None:
                k, l = kl
                if act_xplus(k, xm[l]) != act_xminus(l, xp[k]) + cc[k + l]:
                    return f"[x+_{k},x-_{l}] wrong on {tag}"

            def off_weight(case: tuple[int, str, dict[int, VermaVector], int]) -> str | None:
                # x- acts freely, so only the x+ and h images can be zero
                n, gen, image, dk = case
                img = image[n].element(0)
                if (gen == "x-" or not img.is_zero) and _weight(img) != Weight(k0 + dk, d0 + n):
                    return f"{gen}_{n} weight wrong on {tag}"

            def not_nilpotent(n: int) -> str | None:
                # (x+_n)^(k0+1) v = 0 when x+_n v is zero, or when k0 more
                # raising steps kill it
                if not (xp[n].is_zero or k0 > 0 and nilpotency_probe(n, xp[n], k0) is not None):
                    return f"(x+_{n})^{k0 + 1} nonzero on {tag}"

            gens = [("x-", xm, 1)] + ([("x+", xp, -1), ("h", h_, 0)] if mono else [])
            rel_hh.run(nonzero_pairs, h_h)
            rel_hx.run(nonzero_pairs, h_xminus)
            rel_k.run(ks, k_conjugation)
            rel_d.run(((k, sign) for k in ks for sign in "-+"), d_conjugation)
            rel_px.run(((k, l) for k in ks for l in ks), xplus_xminus)
            weight_dec.run(
                ((n, *gen) for n in ks for gen in gens if gen[0] != "h" or n != 0), off_weight
            )
            nilp.run(nilp_range, not_nilpotent)
            simple.run(
                [v] if mono else [],
                lambda sample: None if simplicity_probe(sample) is not None
                else f"no raising path to the highest weight from {tag}",
            )
    sample_checks = [Check.fold(name, (row[i] for row in rows)) for i, name in enumerate(names)]

    # intertwining of the tilde operators with canonical module maps
    # the swap control needs two distinct weights: a swap between equal ones
    # is a module map
    hs = list(dict.fromkeys(weights))[:2]
    if len(hs) == 1:
        hs.append(hs[0] + 1 if hs[0] != -1 else 1)
    desc = (HighestWeight(hs[0], d), HighestWeight(hs[1], d))
    sample_monos = enumerate_all(min(2, max_length), window)
    inj_samples = [VermaVector(desc[:1], {0: Element.monomial(m)}) for m in sample_monos]
    sum_samples = [
        VermaVector(desc, {i: Element.monomial(m)}) for m in sample_monos for i in (0, 1)
    ]
    maps = [
        (injection_map(desc, 0), inj_samples),
        (projection_map(desc, 0), sum_samples),
        (projection_map(desc, 1), sum_samples),
    ]
    if corrupt == "map":
        maps.append((component_swap_map(desc), sum_samples))
    intertwine = Check.fold(
        "intertwining-maps", (verify_intertwining(nu, s, (-2, 2)) for nu, s in maps)
    )
    swap_control = Check("swap-control-detected").run(
        [verify_intertwining(component_swap_map(desc), sum_samples, (-1, 1))],
        lambda swap: "component swap between distinct weights was not detected"
        if swap.passed else None,
    )

    return SuiteReport(
        "module",
        {
            "weights": list(weights),
            "d": d,
            "max_length": max_length,
            "window": list(window),
            "components": list(comp_range),
            "nilpotency_range": list(NILPOTENCY_RANGE),
            "corrupt": corrupt,
        },
        seed,
        [*sample_checks, intertwine, swap_control],
    )


def suite_crystal(
    weights: tuple[int, ...] = (1, 3),
    d: int = 0,
    max_length: int = 3,
    window: tuple[int, int] = (-2, 2),
    m_range: tuple[int, int] = (-3, 3),
    seed: int = DEFAULT_SEED,
    corrupt: str | None = None,
) -> SuiteReport:
    def lattice(hs: tuple[int, ...]) -> LatticeDesc:
        lat = LatticeDesc(tuple(HighestWeight(h, d) for h in hs), max_length, window)
        return corrupted_lattice(lat) if corrupt == "lattice" else lat

    # the tilde images are memoised without the weight, which they do not
    # depend on, so every lattice below reads the same entries; each axiom
    # run is one result, each witness tagged with its axiom
    results = [
        Check.fold(f"axioms-h{h}", verify_crystal_axioms(lattice((h,)), m_range), tag=True)
        for h in weights
    ]
    if len(weights) >= 2:
        lat2 = lattice(weights[:2])
        results.append(
            Check.fold("axioms-direct-sum", verify_crystal_axioms(lat2, m_range), tag=True)
        )
        components_pass = results[0].passed and results[1].passed
        lat_eq = LatticeDesc((HighestWeight(weights[0], d),) * 2, min(1, max_length), window)
        results += [
            Check("direct-sum-coherence").run(
                [results[-1].passed],
                lambda summed: None if summed == components_pass
                else "direct-sum verdict differs from the conjunction of components",
            ),
            # a split is (witnesses, the axiom results of each block)
            Check("split-canonical").run(
                [split_converse_check(lat2, canonical_split(lat2), m_range)],
                lambda split: split[0] or (
                    None if all(r.passed for block in split[1] for r in block)
                    else "restricted axiom run failed"
                ),
            ),
            Check("split-diagonal-control").run(
                [split_converse_check(lat_eq, diagonal_control_split(lat_eq), m_range)],
                lambda split: None if split[0] else "diagonal sublattice was not rejected",
            ),
        ]

    lat1 = LatticeDesc((HighestWeight(weights[0], d),), max_length, window)
    results.append(Check("signed-image-example").run(
        [crystal_image_x(0, CrystalClass(1, (2,), 0), lat1)],
        lambda img: None if img == CrystalClass(-1, (1, 1), 0)
        else f"x~_0 class(x[2]) gave {img}",
    ))
    return SuiteReport(
        "crystal",
        {
            "weights": list(weights),
            "d": d,
            "max_length": max_length,
            "window": list(window),
            "m_range": list(m_range),
            "corrupt": corrupt,
        },
        seed,
        results,
    )


SUITES = ("relations", "form", "crystal", "confluence", "module", "all")
# the one suite that runs each corrupted fixture; `all` hands it to that one
CORRUPT_OWNER = {"lattice": "crystal", "map": "module", "gram": "form"}


def _given(**bounds) -> dict:
    """The bounds that were given (0 included); the others are left out, so
    each keeps the default in its suite's signature."""
    return {key: value for key, value in bounds.items() if value is not None}


def run_suite(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    weights: tuple[int, ...] | None = None,
    d: int = 0,
    max_length: int | None = None,
    window: tuple[int, int] | None = None,
    m_range: tuple[int, int] | None = None,
    corrupt: str | None = None,
) -> list[SuiteReport]:
    for bound in (window, m_range):
        if bound is not None and bound[0] > bound[1]:
            raise ValueError(f"empty range {bound[0]}:{bound[1]}: need a <= b")
    if name == "all":
        reports = []
        for sub in ("confluence", "relations", "form", "module", "crystal"):
            reports.extend(
                run_suite(
                    sub, seed=seed, weights=weights, d=d, max_length=max_length,
                    window=window, m_range=m_range, corrupt=corrupt,
                )
            )
        return reports
    shared = _given(max_length=max_length, window=window)
    if name == "confluence":
        return [suite_confluence(seed=seed, **shared)]
    if name == "relations":
        return [suite_relations(seed=seed, **shared, **_given(comp_range=m_range))]
    if name == "form":
        return [suite_form(seed=seed, corrupt=corrupt, **shared)]
    shared.update(_given(weights=weights or None), seed=seed, d=d, corrupt=corrupt)
    if name == "module":
        return [suite_module(**shared, **_given(comp_range=m_range))]
    if name == "crystal":
        return [suite_crystal(**shared, **_given(m_range=m_range))]
    raise ValueError(f"unknown suite {name!r}")


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: need a <= b")
    return (lo, hi)


def _parse_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type for an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# an element that starts with '-', as in -x[0], -3*x[0], -(x[0]), -[2]*x[0]
# or -g*x[0], and a range or list such as -2:2 or -1,2; argparse itself
# reads -2 and -1.5 as values, not options
_SIGNED_ELEMENT = re.compile(r"-(?!\d+(\.\d+)?$)[\d(\[xqg]")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token starting like a signed element
    as a value, not as an option; its subparsers are of the same class."""

    def _parse_optional(self, arg_string):
        if _SIGNED_ELEMENT.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@memo({})
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = _Parser(
        prog="imcrystal",
        description="Exact computation in the lower half of quantum affine sl2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("normalize", help="rewrite an element into normal form")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("omega", help="apply an annihilation-operator component")
    p.add_argument("--kind", choices=("psi", "phi"), default="psi")
    p.add_argument("-p", type=int, required=True, help="operator component")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("pair", help="bilinear form value with its mod q^2 residue")
    p.add_argument("lhs")
    p.add_argument("rhs")
    add_format(p)

    p = sub.add_parser("gram", help="Gram matrix of one weight over a window")
    p.add_argument("--length", type=_parse_at_least(0), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--window", type=_parse_range, default=(-2, 2))
    add_format(p)

    p = sub.add_parser("act", help="apply a module generator to (expr) . v")
    p.add_argument("--gen", required=True, choices=tuple(GENERATORS))
    p.add_argument("-k", type=int, default=0, help="generator index for x+/x-/h")
    p.add_argument("--h", type=int, required=True, dest="hw",
                   help="highest weight value on h (nonzero)")
    p.add_argument("--d", type=int, default=0, dest="dw")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--h", type=_parse_int_list, default=None, dest="hw",
                   help="comma-separated highest weights")
    p.add_argument("--d", type=int, default=0, dest="dw")
    p.add_argument("--max-length", type=_parse_at_least(1), default=None)
    p.add_argument("--window", type=_parse_range, default=None)
    p.add_argument("--m", type=_parse_range, default=None, dest="m_range")
    p.add_argument("--corrupt", choices=tuple(CORRUPT_OWNER), default=None,
                   help="run against a documented corrupted fixture (control)")
    add_format(p)

    return parser


def _emit(payload: dict, fmt: str, text: str) -> None:
    out = json.dumps(payload, indent=2, sort_keys=True) if fmt == "json" else text
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: drop the output, keep the command's exit
        # code, and send the interpreter's last flush to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():
            # argparse stores '--' given as an option's own value as [],
            # without calling its type or checking its choices
            parser.error("an option value of '--' is not allowed")
        # only verify has --corrupt; a single suite takes only its own fixture
        owner = CORRUPT_OWNER.get(vars(args).get("corrupt"))
        if owner and args.suite not in ("all", owner):
            parser.error(f"--corrupt {args.corrupt} is a fixture of the {owner} suite, "
                         f"not of {args.suite}")
    except SystemExit as stop:
        return int(stop.code or 0) and EXIT_PARSE

    try:
        if args.command == "normalize":
            text = format_element(parse_element(args.expr))
            _emit({"element": text}, args.format, text)
            return EXIT_PASS

        if args.command == "omega":
            e = parse_element(args.expr)
            text = format_element(omega_apply(args.kind, args.p, e))
            _emit({"element": text}, args.format, text)
            return EXIT_PASS

        if args.command == "pair":
            a = parse_element(args.lhs).specialize_gamma_one()
            b = parse_element(args.rhs).specialize_gamma_one()
            value = pairing.pair(a, b)
            shown = format_coeff(value)
            if (r := residue_mod_q2(value)) is not None:
                text = f"{shown} (= {r} mod q^2)"
            elif value.is_regular_at_zero():
                text = f"{shown} (not congruent to a rational mod q^2)"
            else:
                text = f"{shown} (pole at q = 0)"
            _emit({"value": shown, "display": text}, args.format, text)
            return EXIT_PASS

        if args.command == "gram":
            g = pairing.gram(Weight(args.length, args.degree), args.window)
            payload = g.to_dict()
            lines = ["basis: " + " ".join(payload["basis"])]
            for row in payload["entries"]:
                lines.append("  [" + ", ".join(row) + "]")
            _emit(payload, args.format, "\n".join(lines))
            return EXIT_PASS

        if args.command == "act":
            # the weight first, so that h = 0 is a domain error before any
            # parse error
            module = (HighestWeight(args.hw, args.dw),)
            v = VermaVector(module, {0: parse_element(args.expr).specialize_gamma_one()})
            text = format_vector(GENERATORS[args.gen](args.k, v))
            _emit({"vector": text}, args.format, text)
            return EXIT_PASS

        if args.command == "verify":
            reports = run_suite(
                args.suite,
                seed=args.seed,
                weights=args.hw,
                d=args.dw,
                max_length=args.max_length,
                window=args.window,
                m_range=args.m_range,
                corrupt=args.corrupt,
            )
            payload = {"reports": [r.to_dict() for r in reports]}
            lines = []
            for rep in reports:
                for res in rep.results:
                    status = "PASS" if res.passed else "FAIL"
                    line = f"{rep.suite}/{res.name}: {status} ({res.checked} checks)"
                    if res.witnesses:
                        line += f" -- {res.witnesses[0]}"
                    lines.append(line)
            _emit(payload, args.format, "\n".join(lines))
            return EXIT_PASS if all(r.passed for r in reports) else EXIT_VERIFY_FAIL

    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, CoefficientError, ZeroDivisionError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN

    parser.error(f"unknown command {args.command!r}")
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
