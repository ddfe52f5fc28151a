"""The free graded algebra on the lowering generators x[n], n in Z.

Words are reordered into the normal form with weakly decreasing indices by
the quantum Serre rewriting rules

    x[a] x[a+1]  ->  q^2 x[a+1] x[a]
    x[a] x[b]    ->  q^2 x[b] x[a] - x[b-1] x[a+1] + q^2 x[a+1] x[b-1]
                     (b >= a + 2)

applied to adjacent ascents.  Rewriting terminates: within a fixed weight
each step strictly decreases (sum of squared indices, inversion count)
lexicographically, and the system is confluent, so the normal form does not
depend on the rewrite strategy.

The normal form of a word is defined recursively, as the sum of the normal
forms of its rewrite pieces, and `normalize_word` still rewrites by a named
strategy ("leftmost" or "rightmost") on request.  By default it evaluates
the normal form by insertion into the normal tail: a word is a letter
before its tail, the tail is normalised first, and the letter is inserted
into each normal term, where only the ascent at position 0 is left to
rewrite.  So the memo keeps the normal forms of (letter, normal word)
pairs and of suffixes, not of every intermediate word of a rewrite.

Every memoised recursion of the package is evaluated through `memo`: a
recursive body is a generator that yields the keys it needs and is sent
their values, and `memo` computes the missing ones first on an explicit
stack of suspended bodies, so a long word never runs one Python frame per
factor or per rewrite step.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering, wraps
from itertools import combinations, combinations_with_replacement, filterfalse
from operator import ge
from types import GeneratorType
from typing import Callable, Generator, Iterable, Iterator, Sequence

from .qcoeff import Coeff, QRat, _Value, _lift, _set, format_coeff

Monomial = tuple[int, ...]


class InhomogeneousError(ValueError):
    """Element mixes terms of different weights."""

    def __init__(self, first: Monomial, second: Monomial):
        super().__init__(f"inhomogeneous element: x{list(first)} vs x{list(second)}")
        self.offending = (first, second)


@total_ordering
class Weight(_Value):
    """Grading datum of a monomial: (length, total degree).  An immutable
    value of that pair, and ordered as it."""

    __slots__ = ("length", "degree")

    def __init__(self, length: int, degree: int):
        _set(self, "length", length)
        _set(self, "degree", degree)

    def _key(self) -> tuple:
        return self.length, self.degree

    def __lt__(self, other: Weight) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return self._key() < other._key()


def monomial_weight(mono: Monomial) -> Weight:
    return Weight(len(mono), sum(mono))


def format_monomial(mono: Monomial) -> str:
    """Text of a monomial as a product x[i]x[j]...; the empty one is "1"."""
    return "".join(f"x[{i}]" for i in mono) or "1"


def memo(table: dict) -> Callable[[Callable], Callable]:
    """Memoise a function in `table`, keyed by the tuple of its positional
    arguments; no other code reads or writes a memo table.

    A recursive body is a generator: it yields a list of the argument tuples
    it needs from the same table, is sent their values in that order, and
    returns its own value.  `memo` computes each missing one first, on an
    explicit stack of suspended bodies, so a chain of dependencies as long
    as a word never runs on Python's stack, and each body runs once per key
    (the needs must not form a cycle).  A body that is not a generator is
    memoised as it is.  A body that raises stores nothing for its key.

    An `Element` is stored with each coefficient replaced by the one shared
    object of its value, so the tables hold each value once.
    """

    def wrap(fn: Callable) -> Callable:
        def run(key: tuple, stack: list, body: GeneratorType | None = None, values=None) -> None:
            # start the body of key, or send a suspended one its values: push
            # it with the needs it yields next, or store the value it returns
            out = fn(*key) if body is None else body
            if type(out) is GeneratorType:
                try:
                    needs = out.send(values)
                except StopIteration as done:
                    out = done.value
                else:
                    stack.append((key, out, needs, iter(needs)))
                    return
            if isinstance(out, Element):
                out = Element._of({m: _shared(c) for m, c in out._terms.items()})
            table[key] = out

        @wraps(fn)
        def cached(*key):
            hit = table.get(key)
            if hit is not None or key in table:
                return hit
            stack: list = []
            run(key, stack)
            while stack:
                k, body, needs, todo = stack[-1]
                # the first need still missing: those before it are in the table
                n = next(filterfalse(table.__contains__, todo), None)
                if n is None:
                    stack.pop()
                    run(k, stack, body, [table[need] for need in needs])
                else:
                    run(n, stack)
            return table[key]

        return cached

    return wrap


# ---------------------------------------------------------------------------
# elements


class Element:
    """Finite linear combination of normal monomials with Coeff weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Coeff] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if not c.is_zero}

    @staticmethod
    def _of(terms: dict[Monomial, Coeff]) -> Element:
        """Wrap a map already free of zero coefficients, without copying it."""
        out = Element.__new__(Element)
        out._terms = terms
        return out

    @staticmethod
    def zero() -> Element:
        return Element()

    @staticmethod
    def one() -> Element:
        return Element({(): Coeff.one()})

    @staticmethod
    def scalar(c: Coeff) -> Element:
        return Element({(): c})

    @staticmethod
    def monomial(indices: Sequence[int], coeff: Coeff | None = None) -> Element:
        """Element of the word x[i1]...x[ik]; reorders if not normal."""
        out = normalize_word(indices)
        return out if coeff is None else out * coeff

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def items(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(sorted(self._terms.items(), key=lambda mc: _display_key(mc[0])))

    def monomials(self) -> list[Monomial]:
        return sorted(self._terms, key=_display_key)

    def coefficient(self, mono: Sequence[int]) -> Coeff:
        return self._terms.get(tuple(mono), Coeff.zero())

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> Element:
        return Element._of({m: -c for m, c in self._terms.items()})

    def __add__(self, other: Element) -> Element:
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out[m] + c if m in out else c
        return Element._of({m: c for m, c in out.items() if c})

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __mul__(self, other: Element | Coeff | QRat | int | Fraction) -> Element:
        if not isinstance(other, Element):
            if (other := _lift(other)) is NotImplemented:
                return NotImplemented
            if other.is_zero:
                return Element.zero()
            return Element._of({m: c * other for m, c in self._terms.items()})
        return _linear_sum(
            (normalize_word(m1 + m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    def __rmul__(self, other: Coeff | QRat | int | Fraction) -> Element:
        return self * other

    # -- inspection ----------------------------------------------------------

    def weight(self) -> Weight:
        """Common weight of all terms; raises on mixtures and on zero."""
        if self.is_zero:
            raise ValueError("the zero element has no weight")
        monos = iter(self._terms)
        first = next(monos)
        w = monomial_weight(first)
        for m in monos:
            if monomial_weight(m) != w:
                raise InhomogeneousError(first, m)
        return w

    def specialize_gamma_one(self) -> Element:
        return Element({m: c.specialize_gamma_one() for m, c in self._terms.items()})

    def is_gamma_free(self) -> bool:
        return all(c.is_gamma_free() for c in self._terms.values())

    def __repr__(self) -> str:
        return f"Element({format_element(self)!r})"


_SHARED: dict[tuple[Coeff], Coeff] = {}


@memo(_SHARED)
def _shared(c: Coeff) -> Coeff:
    """The one object of the value c that the memo tables hold."""
    return c


def _display_key(mono: Monomial) -> tuple:
    return (len(mono), tuple(-i for i in mono))


def _linear_sum(pieces: Iterable[tuple[Element, Coeff | None]]) -> Element:
    """Sum of element * coeff over the pieces (None stands for 1), added up
    in one dict; the pieces themselves are left untouched."""
    acc: dict[Monomial, Coeff] = {}
    for e, c in pieces:
        for m, d in e._terms.items():
            if c is not None:
                d = d * c
            acc[m] = acc[m] + d if m in acc else d
    return Element._of({m: d for m, d in acc.items() if d})


# ---------------------------------------------------------------------------
# rewriting

_Q2 = Coeff.q_power(4)
_CACHE: dict[tuple[Monomial, str | None], Element] = {}


def find_ascent(word: Monomial, strategy: str = "leftmost") -> int | None:
    """Position of the adjacent ascent the strategy would rewrite next."""
    positions = [i for i in range(len(word) - 1) if word[i] < word[i + 1]]
    if not positions:
        return None
    if strategy == "leftmost":
        return positions[0]
    if strategy == "rightmost":
        return positions[-1]
    raise ValueError(f"unknown strategy {strategy!r}")


def rewrite_once(word: Monomial, position: int) -> list[tuple[Coeff, Monomial]]:
    """Apply one Serre rewrite at an ascent; returns (coeff, word) pieces."""
    a, b = word[position], word[position + 1]
    if a >= b:
        raise ValueError("no ascent at the given position")
    pre, post = word[:position], word[position + 2 :]
    if b == a + 1:
        return [(_Q2, pre + (b, a) + post)]
    return [
        (_Q2, pre + (b, a) + post),
        (-Coeff.one(), pre + (b - 1, a + 1) + post),
        (_Q2, pre + (a + 1, b - 1) + post),
    ]


def termination_measure(word: Monomial) -> tuple[int, int]:
    """(sum of squared indices, inversion count); each rewrite strictly
    decreases it lexicographically within a weight."""
    return (sum(i * i for i in word), sum(a < b for a, b in combinations(word, 2)))


def normalize_word(word: Sequence[int], strategy: str | None = None) -> Element:
    """Normal form of a word: by insertion into its normal tail, or by
    rewriting with the given strategy, "leftmost" or "rightmost"."""
    return _normal(tuple(word), strategy)


@memo(_CACHE)
def _normal(word: Monomial, strategy: str | None) -> Generator[list, list, Element]:
    """Normal form of a word.

    A strategy rewrites the ascent it picks.  Without one, the word is a
    letter before its tail: a tail that is not normal (its indices not
    weakly decreasing) is normalised first and the letter inserted into
    each of its terms; a normal tail leaves only the ascent at position 0
    to rewrite."""
    tail = word[1:]
    if strategy is not None:
        i = find_ascent(word, strategy)
        pieces = [] if i is None else rewrite_once(word, i)
    elif all(map(ge, tail, tail[1:])):
        pieces = rewrite_once(word, 0) if tail and word[0] < word[1] else []
    else:
        (form,) = yield [(tail, None)]
        pieces = [(c, word[:1] + m) for m, c in form._terms.items()]
    if not pieces:
        return Element({word: Coeff.one()})
    forms = yield [(w, strategy) for _, w in pieces]
    return _linear_sum(zip(forms, (c for c, _ in pieces)))


def normalize(word: Sequence[int], coeff: Coeff | None = None) -> Element:
    """Normal form of coeff * x[word[0]] ... x[word[-1]]."""
    return Element.monomial(word, coeff)


def weight_of(e: Element) -> Weight:
    return e.weight()


# ---------------------------------------------------------------------------
# finite basis probes


def enumerate_basis(
    length: int, window: tuple[int, int], degree: int | None = None
) -> list[Monomial]:
    """All normal monomials of the given length with indices in the window,
    optionally filtered by total degree, in decreasing lexicographic order:
    the multisets of the window, each listed in decreasing order."""
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    monos = combinations_with_replacement(range(hi, lo - 1, -1), length)
    return [m for m in monos if degree is None or sum(m) == degree]


def enumerate_all(max_length: int, window: tuple[int, int]) -> list[Monomial]:
    """All normal monomials of length 0..max_length over the window."""
    out: list[Monomial] = []
    for k in range(max_length + 1):
        out.extend(enumerate_basis(k, window))
    return out


# ---------------------------------------------------------------------------
# text form


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# integers (decimal digits only: the ones int() reads), names and operators;
# any other character but whitespace is an unknown symbol
_TOKEN = re.compile(r"(\d+)|([qgx])|([-+*/^()\[\]])|(\S)")


# parentheses nest at most this deep, as the parser recurses once per level
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    depth = 0
    for match in _TOKEN.finditer(text):
        integer, name, op, other = match.groups()
        if other:
            raise ParseError(f"unknown symbol {other!r}", match.start())
        depth += (op == "(") - (op == ")")
        if depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", match.start())
        tokens.append(("INT" if integer else "NAME" if name else op, match[0], match.start()))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Element:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        out = self.parse_term() * Coeff.rational(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.parse_term()
            out = out + t if op == "+" else out - t
        return out

    def parse_term(self) -> Element:
        out = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind in ("*", "/"):
                self.next()
                rhs = self.parse_factor()
                if kind == "*":
                    out = out * rhs
                else:
                    if rhs.monomials() not in ([], [()]):
                        raise ParseError("division only by scalar coefficients", pos)
                    out = Element(
                        {m: c / rhs.coefficient(()) for m, c in out._terms.items()}
                    )
            elif kind == "NAME" and value == "x":
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> Element:
        kind, value, pos = self.next()
        if kind == "INT":
            return Element.scalar(Coeff.rational(int(value)))
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "[":
            n = self.parse_int()
            self.expect("]")
            return Element.scalar(Coeff.quantum(n))
        if kind == "NAME" and value == "x":
            self.expect("[")
            n = self.parse_int()
            self.expect("]")
            return Element.monomial((n,))
        if kind == "NAME":  # q or g
            halfexp = 2
            if self.peek()[0] == "^":
                self.next()
                halfexp = self.parse_halfexp()
            if value == "q":
                return Element.scalar(Coeff.q_power(halfexp))
            return Element.scalar(Coeff.gamma_power(halfexp))
        raise ParseError(f"unexpected {value!r}", pos)

    def parse_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("INT")
        return sign * int(tok[1])

    def parse_halfexp(self) -> int:
        """Exponent after '^': n, -n, or (a/2) in half units."""
        if self.peek()[0] == "(":
            self.next()
            a = self.parse_int()
            if self.peek()[0] == "/":
                self.next()
                tok = self.expect("INT")
                if tok[1] != "2":
                    raise ParseError("only half-integer exponents", tok[2])
                self.expect(")")
                return a
            self.expect(")")
            return 2 * a
        return 2 * self.parse_int()


def parse_element(text: str) -> Element:
    """Parse the element grammar; the result is in normal form."""
    parser = _Parser(text)
    out = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out


def _needs_parens(text: str) -> bool:
    """True when the coefficient text is a top-level sum or difference."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and text[i - 1] not in "^(*/":
            return True
    return False


def format_element(e: Element) -> str:
    """Canonical text form; parse_element round-trips it."""
    if e.is_zero:
        return "0"
    parts = []
    for mono, coeff in e.items():
        text = format_coeff(coeff)
        mono_text = format_monomial(mono)
        if not mono:
            body = text
        elif text == "1":
            body = mono_text
        elif text == "-1":
            body = "-" + mono_text
        elif _needs_parens(text):
            body = f"({text})*{mono_text}"
        else:
            body = f"{text}*{mono_text}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts)
