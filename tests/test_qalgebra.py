"""Normal ordering, weights, basis enumeration, and the element grammar."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from imcrystal import cli, kashiwara, qalgebra, verma
from imcrystal.qcoeff import Coeff, QRat
from imcrystal.qalgebra import (
    Element,
    InhomogeneousError,
    ParseError,
    Weight,
    enumerate_basis,
    find_ascent,
    format_element,
    memo,
    normalize_word,
    parse_element,
    rewrite_once,
    termination_measure,
    weight_of,
    _linear_sum,
    _tokenize,
)
from imcrystal.verma import HighestWeight, _xplus_mono
from test_qcoeff import in_one_form

Q2 = Coeff.q_power(4)


def x(*indices):
    return Element.monomial(indices)


class TestNormalize:
    def test_serre_adjacent(self):
        assert normalize_word((0, 1)) == Element({(1, 0): Q2})

    def test_already_normal(self):
        assert normalize_word((1, 0)) == Element({(1, 0): Coeff.one()})

    def test_serre_gap(self):
        expected = Element({(2, 0): Q2, (1, 1): Q2 - Coeff.one()})
        assert normalize_word((0, 2)) == expected

    def test_multiply_examples(self):
        assert x(0) * x(2) == normalize_word((0, 2))
        assert Element.one() * x(1, 0) == x(1, 0)
        assert x(1) * x(0) == Element({(1, 0): Coeff.one()})

    def test_defining_relation_both_sides(self):
        # x[k+1]x[l] - q^-2 x[l]x[k+1] = q^-2 x[k]x[l+1] - x[l+1]x[k]
        qm2 = Coeff.q_power(-4)
        for k in range(-2, 3):
            for l in range(-2, 3):
                lhs = normalize_word((k + 1, l)) - normalize_word((l, k + 1)) * qm2
                rhs = normalize_word((k, l + 1)) * qm2 - normalize_word((l + 1, k))
                assert lhs == rhs, (k, l)


class TestInsertion:
    # the default order inserts each letter into the normal form of its
    # tail; rewriting by either strategy stays the definition

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=7).map(tuple))
    def test_agrees_with_rewriting(self, cold, word):
        cold(qalgebra._CACHE)
        e = normalize_word(word)
        assert e == normalize_word(word, "leftmost") == normalize_word(word, "rightmost")

    @pytest.mark.parametrize("word,normal,halfexp", [
        # x[a]x[a+1]^k = q^(2k) x[a+1]^k x[a]
        ((-1,) + (0,) * 300, (0,) * 300 + (-1,), 4 * 300),
        # x[0]^k x[1] x[0]^k = q^(2k) x[1]x[0]^(2k)
        ((0,) * 150 + (1,) + (0,) * 150, (1,) + (0,) * 300, 4 * 150),
    ])
    def test_long_word_does_not_recurse(self, cold, word, normal, halfexp):
        # cold, with the stack bounded well below one frame per factor
        cold(qalgebra._CACHE)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            e = normalize_word(word)
        finally:
            sys.setrecursionlimit(limit)
        assert e == Element({normal: Coeff.q_power(halfexp)})


class TestMemo:
    # the memo protocol on toy bodies over a fresh table: a generator body
    # yields the keys it needs, is sent their values in the order asked and
    # returns its own value; a plain body is memoised as it is

    def test_a_generator_may_return_before_its_first_yield(self):
        table = {}

        @memo(table)
        def f(n):
            if n >= 0:
                return 2 * n
            yield []

        assert f(3) == 6
        assert table == {(3,): 6}

    def test_an_empty_list_of_needs_is_sent_back_empty(self):
        table = {}

        @memo(table)
        def f(n):
            values = yield []
            return (n, values)

        assert f(1) == (1, [])
        assert table == {(1,): (1, [])}

    def test_values_come_back_in_the_order_asked(self):
        @memo({})
        def f(n):
            if n < 3:
                return n
            return (yield [(2,), (0,), (1,), (0,)])

        assert f(3) == [2, 0, 1, 0]

    def test_a_shared_need_is_computed_once(self):
        entered = []

        @memo({})
        def f(n):
            entered.append(n)
            if n == 0:
                return 1
            if n == 3:
                a, b = yield [(1,), (2,)]
                return a + b
            (z,) = yield [(0,)]
            return z + n

        assert f(3) == (1 + 1) + (1 + 2)
        assert sorted(entered) == [0, 1, 2, 3]

    def test_each_body_is_entered_once_per_key(self):
        # every key below 30 is asked for by two others, and each body
        # suspends until both of its needs are in the table
        entered = []
        table = {}

        @memo(table)
        def fib(n):
            entered.append(n)
            if n < 2:
                return n
            a, b = yield [(n - 1,), (n - 2,)]
            return a + b

        assert fib(30) == 832040
        assert sorted(entered) == list(range(31))
        assert len(table) == 31
        assert fib(30) == 832040 and len(entered) == 31

    def test_a_long_chain_does_not_recurse(self):
        table = {}

        @memo(table)
        def depth(n):
            if n == 0:
                return 0
            (below,) = yield [(n - 1,)]
            return below + 1

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            assert depth(10000) == 10000
        finally:
            sys.setrecursionlimit(limit)
        assert len(table) == 10001

    def test_a_plain_body_may_return_a_list(self):
        table = {}

        @memo(table)
        def pair(n):
            return [n, n]

        value = pair(2)
        assert value == [2, 2]
        assert table[(2,)] is value and pair(2) is value

    def test_a_raising_body_stores_nothing_for_its_key(self):
        table = {}

        @memo(table)
        def f(n):
            if n == 0:
                return 0
            (below,) = yield [(n - 1,)]
            if n == 2:
                raise ValueError(n)
            return below + 1

        with pytest.raises(ValueError):
            f(3)
        assert table == {(0,): 0, (1,): 1}
        with pytest.raises(ValueError):
            f(2)
        assert table == {(0,): 0, (1,): 1}


class TestTermination:
    def test_measure_decreases_on_every_step(self):
        rng = random.Random(7)
        for _ in range(60):
            word = tuple(rng.randint(-3, 3) for _ in range(rng.randint(2, 5)))
            stack = [word]
            steps = 0
            while stack:
                w = stack.pop()
                i = find_ascent(w)
                if i is None:
                    continue
                steps += 1
                assert steps < 10_000, "rewriting did not terminate"
                for _, piece in rewrite_once(w, i):
                    assert termination_measure(piece) < termination_measure(w)
                    stack.append(piece)

    def test_confluence_probe(self):
        rng = random.Random(11)
        for _ in range(200):
            word = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 5)))
            assert normalize_word(word, "leftmost") == normalize_word(word, "rightmost")

    def test_weight_preserved(self):
        rng = random.Random(13)
        for _ in range(100):
            word = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
            e = normalize_word(word)
            assert e.weight() == Weight(len(word), sum(word))


class TestWeight:
    def test_examples(self):
        assert weight_of(x(2, 0)) == Weight(2, 2)
        assert weight_of(Element.one()) == Weight(0, 0)
        assert weight_of(x(0) * x(2)) == Weight(2, 2)

    def test_inhomogeneous_reports_pair(self):
        with pytest.raises(InhomogeneousError) as err:
            weight_of(x(0) + x(1, 1))
        assert len(err.value.offending) == 2

    def test_zero_has_no_weight(self):
        with pytest.raises(ValueError):
            weight_of(Element.zero())


class TestEnumerate:
    def test_examples(self):
        assert enumerate_basis(2, (0, 1)) == [(1, 1), (1, 0), (0, 0)]
        assert enumerate_basis(2, (0, 2), 2) == [(2, 0), (1, 1)]
        assert enumerate_basis(0, (-3, 3)) == [()]

    def test_filtered_matches_unfiltered(self):
        allm = enumerate_basis(3, (-2, 2))
        for d in range(-6, 7):
            assert enumerate_basis(3, (-2, 2), d) == [m for m in allm if sum(m) == d]

    def test_all_normal(self):
        for m in enumerate_basis(4, (-2, 2)):
            assert all(m[i] >= m[i + 1] for i in range(3))

    def test_matches_recursive_enumerator(self):
        for lo in range(-3, 4):
            for hi in range(lo, 4):
                for length in range(5):
                    for degree in [None, *range(length * lo - 1, length * hi + 2)]:
                        assert enumerate_basis(length, (lo, hi), degree) == enumerate_recursive(
                            length, (lo, hi), degree
                        ), (length, (lo, hi), degree)


def enumerate_recursive(length, window, degree=None):
    """The replaced enumerator, kept as an oracle: a depth-first walk over
    decreasing prefixes that prunes prefixes which cannot reach the degree."""
    lo, hi = window
    out = []

    def rec(prefix, top):
        if len(prefix) == length:
            if degree is None or sum(prefix) == degree:
                out.append(prefix)
            return
        rest = length - len(prefix)
        for i in range(top, lo - 1, -1):
            if degree is not None:
                partial = sum(prefix) + i
                if partial + (rest - 1) * lo > degree or partial + (rest - 1) * hi < degree:
                    continue
            rec(prefix + (i,), i)

    rec((), hi)
    return out


class TestGrammar:
    def test_parse_applies_normalize(self):
        assert parse_element("x[0]*x[1]") == Element({(1, 0): Q2})
        assert format_element(parse_element("x[0]*x[1]")) == "q^2*x[1]x[0]"

    def test_scalar_coefficient_term(self):
        e = parse_element("3/2*q^(1/2)*x[2]")
        assert e == Element({(2,): Coeff.q_power(1) * 3 / 2})

    def test_cancellation(self):
        assert parse_element("x[1]*x[0] - x[1]*x[0]").is_zero

    def test_juxtaposed_monomial(self):
        assert parse_element("x[1]x[0]") == x(1, 0)

    def test_quantum_bracket(self):
        assert parse_element("[2]") == Element.scalar(Coeff.quantum(2))
        assert parse_element("[2]*x[0]") == x(0) * Coeff.quantum(2)

    def test_gamma_and_negative_exponents(self):
        e = parse_element("g^(1/2)*q^-2*x[1]")
        assert e == Element({(1,): Coeff.gamma_power(1) * Coeff.q_power(-4)})

    def test_division_by_scalar(self):
        assert parse_element("x[0]/q^2") == Element({(0,): Coeff.q_power(-4)})
        with pytest.raises(ParseError):
            parse_element("x[0]/x[1]")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("x[0] + ?")
        assert err.value.position == 7

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_element("x[0] x")

    def test_cli_normalize_example(self):
        out = format_element(parse_element("x[0]*x[2]"))
        assert out == "q^2*x[2]x[0] + (-1+q^2)*x[1]x[1]"
        assert parse_element(out) == parse_element("x[0]*x[2]")


# ---------------------------------------------------------------------------
# property tests

words = st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(tuple)
short_words = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(tuple)


@settings(max_examples=50, deadline=None)
@given(short_words, short_words, short_words)
def test_multiplication_associative(a, b, c):
    ea, eb, ec = normalize_word(a), normalize_word(b), normalize_word(c)
    assert (ea * eb) * ec == ea * (eb * ec)


@settings(max_examples=50, deadline=None)
@given(words, words)
def test_product_weight_adds(a, b):
    e = normalize_word(a) * normalize_word(b)
    assert e.weight() == Weight(len(a) + len(b), sum(a) + sum(b))


@settings(max_examples=60, deadline=None)
@given(words)
def test_format_parse_round_trip(word):
    e = normalize_word(word)
    assert parse_element(format_element(e)) == e


@settings(max_examples=40, deadline=None)
@given(words, st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
def test_round_trip_with_gamma_coefficients(word, qh, gh):
    e = normalize_word(word) * (Coeff.q_power(qh) * Coeff.gamma_power(gh) * 3)
    assert parse_element(format_element(e)) == e


def tokenize_scanner(text):
    """The replaced character scanner, kept as an oracle for _tokenize."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch in ("q", "g", "x"):
            tokens.append(("NAME", ch, i))
            i += 1
        elif ch in "+-*/^()[]":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unknown symbol {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return (str(err), err.position)


# the token alphabet, decimal digits of other scripts, whitespace and
# non-ASCII letters; no character that str.isdigit accepts but int() does
# not (such as '²'), where the scanner and the regex differ on purpose
token_text = st.text(
    st.sampled_from("0123456789qgx+-*/^()[]٣۵७ \t\n\x0b\x1c\xa0\u2003\u3000")
    | st.characters(categories=("L",), min_codepoint=128),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(token_text)
def test_tokenize_matches_scanner(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(tokenize_scanner, text)


# ---------------------------------------------------------------------------
# the in-place accumulator behind every linear fold

small_coeffs = st.builds(
    lambda qh, gh, n: Coeff.q_power(qh) * Coeff.gamma_power(gh) * n,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-1, max_value=1),
    st.sampled_from([-2, -1, 1, 2]),
)
small_elements = st.builds(
    lambda words, cs: Element({w: c for w, c in zip(words, cs)}),
    st.lists(st.lists(st.integers(-2, 2), max_size=3).map(tuple), max_size=4),
    st.lists(small_coeffs, min_size=4, max_size=4),
)
pieces = st.lists(st.tuples(small_elements, st.none() | small_coeffs), max_size=6)


def no_stored_zero(e):
    # no zero Coeff, and each one in the canonical form
    return all(not c.is_zero and in_one_form(c) for c in e._terms.values())


@settings(max_examples=100, deadline=None)
@given(pieces)
def test_linear_sum_equals_left_fold(ps):
    folded = Element.zero()
    for e, c in ps:
        folded = folded + (e if c is None else e * c)
    got = _linear_sum(ps)
    assert got == folded
    assert no_stored_zero(got)


@settings(max_examples=50, deadline=None)
@given(pieces)
def test_linear_sum_cancelling_to_zero(ps):
    neg = [(e, -(c if c is not None else Coeff.one())) for e, c in ps]
    got = _linear_sum(ps + neg)
    assert got == Element.zero() and got._terms == {}


@settings(max_examples=50, deadline=None)
@given(short_words, short_words, small_coeffs)
def test_built_elements_store_no_zero(a, b, c):
    ea, eb = normalize_word(a), normalize_word(b)
    for e in (ea * eb, ea * c, ea * eb * c - ea * eb * c, (ea + eb) * (ea - eb)):
        assert no_stored_zero(e)


def test_element_scalars_lift_as_coeff_operands():
    e = x(1, 0)
    for scalar in (2, Fraction(2), QRat.rational(2), Coeff.rational(2)):
        assert e * scalar == Element({(1, 0): Coeff.rational(2)})


def test_element_times_a_non_scalar_raises():
    assert Element.one().__mul__("a") is NotImplemented
    with pytest.raises(TypeError):
        Element.one() * "a"


def test_cached_results_are_not_mutated():
    word = (0, 2, -1)
    cached = normalize_word(word)
    xplus = _xplus_mono(1, (1, 0, -1), HighestWeight(2).h)
    before = [(e, dict(e._terms)) for e in (cached, xplus)]
    for e, _ in before:
        # accumulations that start from, grow and cancel the cached terms
        _linear_sum([(e, None), (e, Q2), (e, -Coeff.one())])
        _linear_sum([(e, None), (e, -Coeff.one())])
        e * e
    assert normalize_word(word) is cached
    assert _xplus_mono(1, (1, 0, -1), HighestWeight(2).h) is xplus
    for e, terms in before:
        assert e._terms == terms


def test_memo_tables_keep_one_object_per_value(cold):
    tables = [qalgebra._CACHE, kashiwara._OMEGA_CACHE,
              verma._H_CACHE, verma._DIFF_CACHE, verma._XPLUS_CACHE]
    for table in tables:
        cold(table)
    # words of up to two factors: at one factor the tables hold fewer than
    # 100 distinct values, since the omega table is at gamma = 1
    bounds = ["--max-length", "2", "--window", "-1:1", "--m", "-1:1"]
    for suite in ("relations", "module"):
        assert cli.main(["verify", suite, *bounds]) == cli.EXIT_PASS
    coeffs = [c for table in tables for e in table.values() for c in e._terms.values()]
    values = {(frozenset(c._t.items()), c._d, c._D) for c in coeffs}
    assert len(values) > 100
    assert len({id(c) for c in coeffs}) == len(values)
