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
import random
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .check import Check
from .qcoeff import Coeff, CoefficientError, congruent_mod_q2, format_coeff
from .qalgebra import (
    Element,
    ParseError,
    Weight,
    enumerate_all,
    enumerate_basis,
    find_ascent,
    format_element,
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
    direct_sum,
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


@dataclass
class SuiteReport:
    suite: str
    bounds: dict
    seed: int
    results: list[Check]

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


# ---------------------------------------------------------------------------
# suites


def suite_confluence(
    seed: int = DEFAULT_SEED,
    samples: int = 200,
    max_length: int = 5,
    window: tuple[int, int] = (-3, 3),
) -> SuiteReport:
    rng = random.Random(seed)
    serre = Check("serre1-instance", 1)
    expected = Element({(1, 0): Coeff.q_power(4)})
    if normalize_word((0, 1)) != expected:
        serre.witnesses.append("x[0]x[1] did not rewrite to q^2*x[1]x[0]")

    probe = Check("confluence-probe")
    measure = Check("termination-measure")
    for _ in range(samples):
        word = _random_word(rng, max_length, window)
        probe.checked += 1
        if normalize_word(word, "leftmost") != normalize_word(word, "rightmost"):
            probe.witnesses.append(f"strategies disagree on x{list(word)}")
        # instrumented walk: every rewrite strictly decreases the measure
        stack = [word]
        seen = 0
        while stack and seen < 500:
            w = stack.pop()
            i = find_ascent(w, "leftmost")
            if i is None:
                continue
            seen += 1
            for _, piece in rewrite_once(w, i):
                measure.checked += 1
                if not termination_measure(piece) < termination_measure(w):
                    measure.witnesses.append(
                        f"measure did not decrease: x{list(w)} -> x{list(piece)}"
                    )
                stack.append(piece)
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

    oracle = Check("oracle-psi-closed")
    for mono in enumerate_all(ORACLE_MAX_LENGTH, window):
        for p in range(ORACLE_P[0], ORACLE_P[1] + 1):
            oracle.checked += 1
            if omega_psi_closed(p, mono) != omega_mono(PSI, p, mono):
                oracle.witnesses.append(f"closed formula disagrees at p={p}, x{list(mono)}")
    results.append(oracle)

    locality = Check("locality-support")
    for mono in enumerate_all(ORACLE_MAX_LENGTH, window):
        if not mono:
            continue
        for p in range(ORACLE_P[0] - 2, ORACLE_P[1] + 3):
            locality.checked += 1
            img = omega_mono(PSI, p, mono)
            if p < -max(mono) and not img.is_zero:
                locality.witnesses.append(
                    f"psi[{p}] should kill x{list(mono)} (support bound)"
                )
            if not img.is_zero:
                w = Weight(len(mono) - 1, sum(mono) + p)
                got = img.weight()
                if got != w:
                    locality.witnesses.append(
                        f"psi[{p}] on x{list(mono)}: weight {got} expected {w}"
                    )
    results.append(locality)

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
    symmetry = Check("symmetry-random")
    adjoint = Check("adjointness-random")
    ortho_weights = Check("weight-orthogonality-random")
    for _ in range(samples):
        a = _random_homogeneous(rng, window, max_length)
        b = _random_homogeneous(rng, window, max_length, a.weight())
        m = rng.randint(window[0], window[1])
        symmetry.checked += 1
        if pairing.pair(a, b) != pairing.pair(b, a):
            symmetry.witnesses.append(f"asymmetric on {format_element(a)} | {format_element(b)}")
        adjoint.checked += 1
        lhs = pairing.pair(Element.monomial((m,)) * a, b)
        rhs = pairing.pair(a, omega_apply(PSI, -m, b).specialize_gamma_one())
        if lhs != rhs:
            adjoint.witnesses.append(f"adjointness fails at m={m} on {format_element(a)}")
        c = _random_homogeneous(rng, window, max_length)
        if c.weight() != a.weight():
            ortho_weights.checked += 1
            if not pairing.pair(a, c).is_zero:
                ortho_weights.witnesses.append(
                    f"nonzero pairing across weights {a.weight()} vs {c.weight()}"
                )

    gram_res = Check("gram-orthonormality")
    for k in range(1, max_length + 1):
        for d in range(k * window[0], k * window[1] + 1):
            g = pairing.gram(Weight(k, d), window)
            if not g.basis:
                continue
            if corrupt == "gram" and gram_res.checked == 0:
                g.entries[0][0] = g.entries[0][0] + Coeff.q_power(2)
            gram_res.checked += 1
            gram_res.witnesses.extend(
                f"weight ({k},{d}): {w}" for w in pairing.orthonormality_report(g).witnesses
            )

    cross = Check("cross-length-zero")
    monos = enumerate_all(max_length, window)
    for i, ma in enumerate(monos):
        for mb in monos:
            if len(ma) != len(mb):
                cross.checked += 1
                v = pairing.pair(Element({ma: Coeff.one()}), Element({mb: Coeff.one()}))
                if not v.is_zero:
                    cross.witnesses.append(f"x{list(ma)} pairs x{list(mb)} to {format_coeff(v)}")

    frozen = Check("frozen-value", 1)
    value = pairing.pair(Element.monomial((1, 1)), Element.monomial((1, 1)))
    if value != Coeff.one() + Coeff.q_power(4):
        frozen.witnesses.append(f"(x[1]x[1], x[1]x[1]) = {format_coeff(value)} expected 1+q^2")

    membership = Check("membership-probe")
    for mono in enumerate_all(2, (-1, 1)):
        if not mono:
            continue
        membership.checked += 2
        good = pairing.lattice_membership_probe(Element({mono: Coeff.one()}), window)
        if not good.passed:
            membership.witnesses.append(f"x{list(mono)} rejected: {good.describe()}")
        bad = pairing.lattice_membership_probe(
            Element({mono: Coeff.q_power(-2)}), window
        )
        if bad.passed:
            membership.witnesses.append(f"q^-1 x{list(mono)} accepted by the probe")

    return SuiteReport(
        "form",
        {"samples": samples, "max_length": max_length, "window": list(window),
         "corrupt": corrupt},
        seed,
        [symmetry, adjoint, ortho_weights, gram_res, cross, frozen, membership],
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

    Each operator image is computed once per sample: the checks keep a table
    of the images of the sample under h[k], h[k]h[l], x-[l], x+[k], the
    Cartan currents, K^-1 and D^-1, and the relation and weight checks all
    read from it.  Both sides of each identity are still computed separately.
    """
    rel_hh = Check("relation-h-h")
    rel_hx = Check("relation-h-xminus")
    rel_k = Check("relation-K-conjugation")
    rel_d = Check("relation-D-conjugation")
    rel_px = Check("relation-xplus-xminus")
    weight_dec = Check("weight-decomposition")
    nilp = Check("local-nilpotency")
    simple = Check("simplicity-probe")

    lo, hi = comp_range
    monos = enumerate_all(max_length, window)
    for h in weights:
        M = direct_sum([HighestWeight(h, d)])
        samples = [(mono, M.inject(0, Element.monomial(mono))) for mono in monos]
        for mono, v in samples:
            tag = f"h={h}, x{list(mono)}"

            # the per-sample table of operator images every check below reads
            @cache
            def h_(k: int) -> VermaVector:
                return act_h(k, v)

            @cache
            def hh(k: int, l: int) -> VermaVector:
                return act_h(k, h_(l))

            @cache
            def xm(l: int) -> VermaVector:
                return act_xminus(l, v)

            @cache
            def xp(k: int) -> VermaVector:
                return act_xplus(k, v)

            @cache
            def cc(p: int) -> VermaVector:
                return current_commutator(p, v)

            k_inv, d_inv = act_K(v, -1), act_D(v, -1)

            for k in range(lo, hi + 1):
                if k != 0:
                    for l in range(lo, hi + 1):
                        if l == 0:
                            continue
                        rel_hh.checked += 1
                        if hh(k, l) != hh(l, k):
                            rel_hh.witnesses.append(f"[h_{k},h_{l}] nonzero on {tag}")
                        rel_hx.checked += 1
                        if act_h(k, xm(l)) != act_xminus(l, h_(k)) + xm(k + l) * _h_scalar(k):
                            rel_hx.witnesses.append(f"[h_{k},x-_{l}] wrong on {tag}")
                rel_k.checked += 1
                if act_K(act_xminus(k, k_inv)) != xm(k) * Coeff.q_power(-4):
                    rel_k.witnesses.append(f"K x-_{k} K^-1 wrong on {tag}")
                rel_d.checked += 2
                if act_D(act_xminus(k, d_inv)) != xm(k) * Coeff.q_power(2 * k):
                    rel_d.witnesses.append(f"D x-_{k} D^-1 wrong on {tag}")
                if act_D(act_xplus(k, d_inv)) != xp(k) * Coeff.q_power(2 * k):
                    rel_d.witnesses.append(f"D x+_{k} D^-1 wrong on {tag}")
                for l in range(lo, hi + 1):
                    rel_px.checked += 1
                    if act_xplus(k, xm(l)) != act_xminus(l, xp(k)) + cc(k + l):
                        rel_px.witnesses.append(f"[x+_{k},x-_{l}] wrong on {tag}")

            # weight decomposition of generator images
            k0, d0 = len(mono), sum(mono)
            for n in range(lo, hi + 1):
                weight_dec.checked += 1
                img = xm(n).element(0)
                if img.weight() != Weight(k0 + 1, d0 + n):
                    weight_dec.witnesses.append(f"x-_{n} weight wrong on {tag}")
                if mono:
                    weight_dec.checked += 1
                    img = xp(n).element(0)
                    if not img.is_zero and img.weight() != Weight(k0 - 1, d0 + n):
                        weight_dec.witnesses.append(f"x+_{n} weight wrong on {tag}")
                    if n != 0:
                        weight_dec.checked += 1
                        img = h_(n).element(0)
                        if not img.is_zero and img.weight() != Weight(k0, d0 + n):
                            weight_dec.witnesses.append(f"h_{n} weight wrong on {tag}")

            for n in range(NILPOTENCY_RANGE[0], NILPOTENCY_RANGE[1] + 1):
                nilp.checked += 1
                t = nilpotency_probe(n, v, len(mono) + 1)
                if t is None:
                    nilp.witnesses.append(f"(x+_{n})^{len(mono)+1} nonzero on {tag}")

            if mono:
                simple.checked += 1
                if simplicity_probe(v) is None:
                    simple.witnesses.append(f"no raising path to the highest weight from {tag}")

    # intertwining of the tilde operators with canonical module maps
    intertwine = Check("intertwining-maps")
    # the swap control needs two distinct weights: a swap between equal ones
    # is a module map
    hs = list(dict.fromkeys(weights))[:2]
    if len(hs) == 1:
        hs.append(hs[0] + 1 if hs[0] != -1 else 1)
    desc = direct_sum([HighestWeight(hs[0], d), HighestWeight(hs[1], d)])
    sample_monos = enumerate_all(min(2, max_length), window)
    single0 = direct_sum([HighestWeight(hs[0], d)])
    inj_samples = [single0.inject(0, Element.monomial(m)) for m in sample_monos]
    sum_samples = [
        desc.inject(i, Element.monomial(m)) for m in sample_monos for i in (0, 1)
    ]
    maps = [
        (injection_map(desc, 0), inj_samples),
        (projection_map(desc, 0), sum_samples),
        (projection_map(desc, 1), sum_samples),
    ]
    if corrupt == "map":
        maps.append((component_swap_map(desc), sum_samples))
    for nu, samples in maps:
        rep = verify_intertwining(nu, samples, (-2, 2))
        intertwine.checked += rep.checked
        intertwine.witnesses.extend(rep.witnesses)

    swap_control = Check("swap-control-detected", 1)
    if verify_intertwining(component_swap_map(desc), sum_samples, (-1, 1)).passed:
        swap_control.witnesses.append(
            "component swap between distinct weights was not detected"
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
        [rel_hh, rel_hx, rel_k, rel_d, rel_px, weight_dec, nilp, simple,
         intertwine, swap_control],
    )


def _axiom_check(name: str, lat: LatticeDesc, m_range: tuple[int, int]) -> Check:
    """The crystal axioms on one lattice as one result, each witness tagged
    with its axiom."""
    rep = verify_crystal_axioms(lat, m_range)
    return Check(
        name,
        sum(r.checked for r in rep.results),
        [f"{r.name}: {w}" for r in rep.results for w in r.witnesses],
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

    results = [_axiom_check(f"axioms-h{h}", lattice((h,)), m_range) for h in weights]
    if len(weights) >= 2:
        lat2 = lattice(weights[:2])
        results.append(_axiom_check("axioms-direct-sum", lat2, m_range))

        coherence = Check("direct-sum-coherence", 1)
        if results[-1].passed != (results[0].passed and results[1].passed):
            coherence.witnesses.append(
                "direct-sum verdict differs from the conjunction of components"
            )
        results.append(coherence)

        split_res = Check("split-canonical", 1)
        sp = split_converse_check(lat2, canonical_split(lat2), m_range)
        if not sp.passed:
            split_res.witnesses.extend(sp.witnesses or ["restricted axiom run failed"])
        results.append(split_res)

        control = Check("split-diagonal-control", 1)
        lat_eq = LatticeDesc(
            (HighestWeight(weights[0], d), HighestWeight(weights[0], d)),
            min(1, max_length),
            window,
        )
        spd = split_converse_check(lat_eq, diagonal_control_split(lat_eq), m_range)
        if spd.compatible:
            control.witnesses.append("diagonal sublattice was not rejected")
        results.append(control)

    signed = Check("signed-image-example", 1)
    lat1 = LatticeDesc((HighestWeight(weights[0], d),), max_length, window)
    img = crystal_image_x(0, CrystalClass(1, (2,), 0), lat1)
    if img != CrystalClass(-1, (1, 1), 0):
        signed.witnesses.append(f"x~_0 class(x[2]) gave {img}")
    results.append(signed)

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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
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
    p.add_argument("--corrupt", choices=("lattice", "map", "gram"), default=None,
                   help="run against a documented corrupted fixture (control)")
    add_format(p)

    return parser


def _emit(payload: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _merge_range_flags(argv: list[str]) -> list[str]:
    """Join range values onto their flags so argparse does not mistake
    '-2:2' for an option (the documented syntax is '--window -2:2')."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--window", "--m") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_range_flags(list(argv)))
    except SystemExit as err:
        return int(err.code or 0) and EXIT_PARSE

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
            text = shown
            if value.is_regular_at_zero():
                r = value.constant_at_zero()
                if congruent_mod_q2(value, r):
                    text += f" (= {r} mod q^2)"
                else:
                    text += " (not congruent to a rational mod q^2)"
            else:
                text += " (pole at q = 0)"
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
            module = direct_sum([HighestWeight(args.hw, args.dw)])
            v = module.inject(0, parse_element(args.expr).specialize_gamma_one())
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
