"""`verify module`'s image tables against the loop they replaced.

`suite_module_per_sample_uncached` is the per-sample loop of
`cli.suite_module` before the tables, with the weights outermost: it
recomputes every operator image at each use, on each weight, and builds
`A - B` for each commutator.  It reads `_h_scalar` and
`current_commutator` through the `cli` module, so a monkeypatched fault
reaches the oracle and the suite alike.
"""

import pytest

from imcrystal import cli, verma
from imcrystal.check import Check
from imcrystal.qcoeff import Coeff
from imcrystal.qalgebra import Element, Weight, enumerate_all
from imcrystal.verma import (
    HighestWeight,
    VermaVector,
    act_D,
    act_h,
    act_K,
    act_xminus,
    act_xplus,
    nilpotency_probe,
    simplicity_probe,
)

# the bounds of `verify module --h 1,-1 --max-length 2 --window -1:1 --m -1:1`
SMALL = {"weights": (1, -1), "d": 0, "max_length": 2, "window": (-1, 1),
         "comp_range": (-1, 1)}


def suite_module_per_sample_uncached(weights, d, max_length, window, comp_range):
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
        M = (HighestWeight(h, d),)
        samples = [(mono, VermaVector(M, {0: Element.monomial(mono)})) for mono in monos]
        for mono, v in samples:
            tag = f"h={h}, x{list(mono)}"
            for k in range(lo, hi + 1):
                if k != 0:
                    for l in range(lo, hi + 1):
                        if l == 0:
                            continue
                        rel_hh.checked += 1
                        if act_h(k, act_h(l, v)) != act_h(l, act_h(k, v)):
                            rel_hh.witnesses.append(f"[h_{k},h_{l}] nonzero on {tag}")
                        rel_hx.checked += 1
                        lhs = act_h(k, act_xminus(l, v)) - act_xminus(l, act_h(k, v))
                        if lhs != act_xminus(k + l, v) * cli._h_scalar(k):
                            rel_hx.witnesses.append(f"[h_{k},x-_{l}] wrong on {tag}")
                rel_k.checked += 1
                if act_K(act_xminus(k, act_K(v, -1))) != act_xminus(k, v) * Coeff.q_power(-4):
                    rel_k.witnesses.append(f"K x-_{k} K^-1 wrong on {tag}")
                rel_d.checked += 2
                if act_D(act_xminus(k, act_D(v, -1))) != act_xminus(k, v) * Coeff.q_power(2 * k):
                    rel_d.witnesses.append(f"D x-_{k} D^-1 wrong on {tag}")
                if act_D(act_xplus(k, act_D(v, -1))) != act_xplus(k, v) * Coeff.q_power(2 * k):
                    rel_d.witnesses.append(f"D x+_{k} D^-1 wrong on {tag}")
                for l in range(lo, hi + 1):
                    rel_px.checked += 1
                    lhs = act_xplus(k, act_xminus(l, v)) - act_xminus(l, act_xplus(k, v))
                    if lhs != cli.current_commutator(k + l, v):
                        rel_px.witnesses.append(f"[x+_{k},x-_{l}] wrong on {tag}")

            k0, d0 = len(mono), sum(mono)
            for n in range(lo, hi + 1):
                weight_dec.checked += 1
                img = act_xminus(n, v).element(0)
                if img.weight() != Weight(k0 + 1, d0 + n):
                    weight_dec.witnesses.append(f"x-_{n} weight wrong on {tag}")
                if mono:
                    weight_dec.checked += 1
                    img = act_xplus(n, v).element(0)
                    if not img.is_zero and img.weight() != Weight(k0 - 1, d0 + n):
                        weight_dec.witnesses.append(f"x+_{n} weight wrong on {tag}")
                    if n != 0:
                        weight_dec.checked += 1
                        img = act_h(n, v).element(0)
                        if not img.is_zero and img.weight() != Weight(k0, d0 + n):
                            weight_dec.witnesses.append(f"h_{n} weight wrong on {tag}")

            for n in range(cli.NILPOTENCY_RANGE[0], cli.NILPOTENCY_RANGE[1] + 1):
                nilp.checked += 1
                if nilpotency_probe(n, v, len(mono) + 1) is None:
                    nilp.witnesses.append(f"(x+_{n})^{len(mono)+1} nonzero on {tag}")

            if mono:
                simple.checked += 1
                if simplicity_probe(v) is None:
                    simple.witnesses.append(f"no raising path to the highest weight from {tag}")

    return [rel_hh, rel_hx, rel_k, rel_d, rel_px, weight_dec, nilp, simple]


def _rows(checks):
    return [(c.name, c.checked, c.witnesses) for c in checks]


def _wrong_h_scalar(monkeypatch):
    right = cli._h_scalar
    monkeypatch.setattr(cli, "_h_scalar", lambda k: right(k) * (2 if k == 1 else 1))


def _wrong_current_commutator(monkeypatch):
    right = cli.current_commutator

    def wrong(p, v):
        return right(p, v) + v if p == 0 else right(p, v)

    monkeypatch.setattr(cli, "current_commutator", wrong)


@pytest.mark.parametrize("fault, broken", [
    (None, None),
    (_wrong_h_scalar, "relation-h-xminus"),
    (_wrong_current_commutator, "relation-xplus-xminus"),
])
def test_table_matches_uncached_loop(monkeypatch, fault, broken):
    if fault is not None:
        fault(monkeypatch)
    rows = _rows(cli.suite_module(**SMALL).results[:8])
    assert rows == _rows(suite_module_per_sample_uncached(**SMALL))
    failing = {name for name, _, witnesses in rows if witnesses}
    assert failing == ({broken} if broken else set())
    if broken:
        # some checks of the broken relation still pass, so the order of its
        # witnesses among them is pinned too
        name, checked, witnesses = next(r for r in rows if r[0] == broken)
        assert 0 < len(witnesses) < checked


COUNTED = ("act_h", "act_xminus", "act_xplus", "current_commutator")


def _count_calls(monkeypatch) -> dict[str, int]:
    """Wrap each counted action in a counter in every module that binds it."""
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(verma, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (verma, cli):
            monkeypatch.setattr(module, name, counted)
    return counts


def test_each_image_computed_once_per_sample(monkeypatch):
    # the counts of one small run with the weight-free table per monomial and
    # the per-sample table; the loop without either made 996, 1520, 1452 and
    # 180 calls at these bounds, and the per-sample table alone 680, 1100,
    # 1218 and 100
    counts = _count_calls(monkeypatch)
    cli.suite_module(**SMALL)
    assert counts == {
        "act_h": 580,
        "act_xminus": 1010,
        "act_xplus": 1158,
        "current_commutator": 100,
    }


def test_weight_free_images_are_computed_once_per_monomial(monkeypatch):
    # a second weight adds no h[k] image and no weight-free x-[l] image; its
    # only x- calls act on K^-1 v and D^-1 v (3 + 3) and on the x+ images
    # (3 x 3), which read the weight: 15 for each of the 10 monomials.  The
    # intertwining samples are the same for both weight lists.
    counts = _count_calls(monkeypatch)
    cli.suite_module(**{**SMALL, "weights": (1,)})
    one = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    cli.suite_module(**SMALL)
    assert (counts["act_h"], counts["act_xminus"]) == (one["act_h"], one["act_xminus"] + 150)


@pytest.mark.parametrize("d", [0, 1])
def test_h_and_xminus_do_not_read_the_weight(d):
    # the premise of the weight-free table: h[k], x-[l] and D^-1 give the
    # same element on M(1), M(2) and M(-1)
    modules = [(HighestWeight(h, d),) for h in (1, 2, -1)]
    ks = range(-2, 3)
    for mono in enumerate_all(3, (-2, 2)):
        vs = [VermaVector(M, {0: Element.monomial(mono)}) for M in modules]
        images = [
            [act_h(k, v).element(0) for k in ks if k != 0]
            + [act_xminus(l, v).element(0) for l in ks]
            + [act_D(v, -1).element(0)]
            for v in vs
        ]
        assert images[0] == images[1] == images[2], mono
