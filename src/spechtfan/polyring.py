"""Sparse multivariate polynomials with integer coefficients, held as term maps.

Monomials are dense exponent tuples indexed by variable (entry i-1 is the
exponent of x_i). The lex order attached to a VariableOrder compares the
exponent of the largest variable first, so a monomial beats another as soon
as it carries more of a bigger variable. A Polynomial is a validated map
from exponent tuples to nonzero ints and carries no ring arithmetic: the
Specht expansion and the division layer in `oracle` build term maps
directly.

This module owns the packed-monomial codec, `_pack` and its inverse
`_unpack`, that `specht`, `fan` and `oracle` share.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .combinatorics import VariableOrder, _check_ints

__all__ = [
    "Polynomial",
    "leading_monomial",
]

Exponents = tuple[int, ...]


def _monomial_text(exps: Exponents) -> str:
    """x1^2*x3 for (2, 0, 1); "1" for the all-zero tuple."""
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def _pack(exps: Exponents, desc, w: int) -> int:
    """One int holding w bits per exponent, taken in the index order `desc`, the first on top.

    While every exponent is below 2**(w-1), the top bit of each field is free
    to catch a borrow, and with `desc` listing the variables from the largest
    down, comparing packed ints compares lex keys.
    """
    p = 0
    for i in desc:
        p = (p << w) | exps[i]
    return p


def _unpack(p: int, desc, w: int) -> Exponents:
    """The exponent tuple that `_pack(_, desc, w)` packed into p."""
    exps = [0] * len(desc)
    mask = (1 << w) - 1
    for i in reversed(desc):
        exps[i] = p & mask
        p >>= w
    return tuple(exps)


def _field_scale(desc, w: int) -> tuple[int, ...]:
    """At index v, the weight 2**(w*j) of the field `_pack` gives x_v, j counted up
    from the bottom, so that sum(e_v * scale[v]) == _pack(e, desc, w); index 0 is unused."""
    scale = [0] * (len(desc) + 1)
    for j, i in enumerate(reversed(desc)):
        scale[i + 1] = 1 << (w * j)
    return tuple(scale)


def _guard_bits(fields: int, w: int) -> int:
    """The top bit of each of `fields` packed fields of width w."""
    return ((1 << (w * fields)) - 1) // ((1 << w) - 1) << (w - 1)


class Polynomial:
    """Immutable-by-convention sparse polynomial; term map from exponents to coefficient."""

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Union[Mapping[Exponents, int], Iterable[tuple[Exponents, int]], None] = None,
    ) -> None:
        _check_ints((n,), "ring size")
        self.n = n
        if n < 1:
            raise ValueError("polynomial ring needs at least one variable")
        clean: dict[Exponents, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for exps, coeff in items:
            exps = tuple(exps)
            _check_ints(exps, "exponents")
            if len(exps) != self.n:
                raise ValueError(f"exponent tuple {exps} does not have {self.n} entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative: {exps}")
            _check_ints((coeff,), "coefficients")
            acc = clean.get(exps, 0) + coeff
            if acc == 0:
                clean.pop(exps, None)
            else:
                clean[exps] = acc
        self._terms = clean

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Exponents, int]]:
        """Raw unordered view of the term map."""
        return iter(self._terms.items())

    def terms(self) -> list[tuple[Exponents, int]]:
        """Terms sorted descending in the identity lex order, for stable output."""
        return sorted(self._terms.items(), key=lambda kv: kv[0][::-1], reverse=True)

    def coefficient(self, exps: Exponents) -> int:
        return self._terms.get(exps, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # mutable dict inside; never hash

    @classmethod
    def _wrap(cls, n: int, terms: dict[Exponents, int]) -> "Polynomial":
        p = cls.__new__(cls)
        p.n = n
        p._terms = terms
        return p

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for m, c in self.terms():
            sign = "-" if (c < 0) else "+"
            mag = -c if c < 0 else c
            body = _monomial_text(m) if mag == 1 and any(m) else (
                f"{mag}*{_monomial_text(m)}" if any(m) else f"{mag}")
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def leading_monomial(f: Polynomial, order: VariableOrder) -> Exponents:
    """The lex-largest monomial of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    if f.n != order.n:
        raise ValueError("polynomial and order must agree on the number of variables")
    # one index makes itemgetter return the exponent itself, which orders the same
    return max(f._terms, key=itemgetter(*order.desc0))
