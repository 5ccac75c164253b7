"""Symbolic differential forms over the character ring of a torus.

The model is the Laurent polynomial ring Z[e_1^{+-1}, ..., e_n^{+-1}]
with its exterior differential; a form is a finite sum of terms
(monomial exponents) . de_{j_1} ^ ... ^ de_{j_k}.  This hosts the
torus restrictions of the odd generators for U(n) and the Weyl-
denominator identity behind their independence, evaluated on the
engine's own data: the weights of wedge^k C^n are the U(n) character
of groups.character, the roots e_i - e_j come from U(n)'s root data,
and the wedge signs from presentation.koszul_sort.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .groups import build_root_data, character
from .presentation import koszul_sort


class LaurentForm(FrozenRecord):
    """Finite sum of Laurent-monomial coefficients times wedge factors.

    ``terms`` maps (exponents, dbits) to an integer, with ``exponents``
    an n-tuple of integers and ``dbits`` a sorted tuple of indices of
    the de_j factors.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self._init(n, {} if terms is None else terms)

    @staticmethod
    def zero(n):
        return LaurentForm(n, {})

    @staticmethod
    def monomial(n, exps, dbits=(), coeff=1):
        """coeff . e^exps . de_dbits, for a nonzero coeff."""
        return LaurentForm(n, {(tuple(exps), tuple(sorted(dbits))): coeff})

    @staticmethod
    def one(n):
        return LaurentForm.monomial(n, (0,) * n)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
            if out[k] == 0:
                del out[k]
        return LaurentForm(self.n, out)

    def __neg__(self):
        return LaurentForm(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (e1, d1), c1 in self.terms.items():
            for (e2, d2), c2 in other.terms.items():
                merged = koszul_sort(d1 + d2)
                if merged is None:
                    continue
                dbits, count = merged
                key = (tuple(a + b for a, b in zip(e1, e2)), dbits)
                out[key] = out.get(key, 0) + c1 * c2 * (-1) ** count
                if out[key] == 0:
                    del out[key]
        return LaurentForm(self.n, out)

    def d(self):
        """Exterior differential: d(e^a) = sum_j a_j e^{a - delta_j} de_j."""
        out = LaurentForm.zero(self.n)
        for (exps, dbits), c in self.terms.items():
            for j, a in enumerate(exps):
                merged = koszul_sort((j,) + dbits) if a else None
                if merged is None:
                    continue
                bits, count = merged
                shifted = tuple(x - (1 if k == j else 0)
                                for k, x in enumerate(exps))
                out = out + LaurentForm.monomial(self.n, shifted, bits,
                                                 c * a * (-1) ** count)
        return out

    def is_zero(self):
        return not self.terms


# ---------------------------------------------------------------------------
# torus restrictions for U(n)
# ---------------------------------------------------------------------------

def _wedge_weights(n: int, k: int):
    """(weight, multiplicity) pairs of wedge^k C^n: the character of the
    k-th fundamental representation of U(n)."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    rd = build_root_data(f"U{n}")
    return character(rd, rd.fundamental_weights()[k - 1]).items()


def torus_restriction_un(n: int, k: int) -> LaurentForm:
    """Torus restriction of the degree-shifted generator of wedge^k.

    The restricted class decomposes over the weights of wedge^k of the
    defining representation: each weight e_J = prod_{j in J} e_j is a
    one-dimensional character, tensored with the derivation class of
    that character line,

        sum_J  e_J . d(e_J).
    """
    out = LaurentForm.zero(n)
    for exps, m in _wedge_weights(n, k):
        out = out + (LaurentForm.monomial(n, exps, coeff=m)
                     * LaurentForm.monomial(n, exps).d())
    return out


def character_restriction_form(n: int, k: int) -> LaurentForm:
    """d of the restricted character of wedge^k (elementary symmetric)."""
    return LaurentForm(n, {(w, ()): m for w, m in _wedge_weights(n, k)}).d()


def root_product(n: int, sign: int) -> LaurentForm:
    """prod (e_i + sign . e_j) as a 0-form, over the positive roots
    e_i - e_j of U(n)'s root data."""
    out = LaurentForm.one(n)
    for a, _ in build_root_data(f"U{n}").positive_root_vecs():
        out = out * (LaurentForm.monomial(n, [max(x, 0) for x in a])
                     + LaurentForm.monomial(n, [max(-x, 0) for x in a], coeff=sign))
    return out


def weyl_denominator(n: int) -> LaurentForm:
    """prod_{i<j} (e_i - e_j) as a 0-form."""
    return root_product(n, -1)


def top_form(n: int) -> LaurentForm:
    """de_1 ^ ... ^ de_n."""
    return LaurentForm.monomial(n, (0,) * n, tuple(range(n)))


def weyl_denominator_product(n: int):
    """The two torus-restriction products behind the injectivity argument.

    Returns (character_product, weighted_product): the product over
    k = 1..n of the restricted character differentials (which equals
    the Weyl denominator times de_1...de_n exactly, by the Jacobian of
    the elementary symmetric polynomials), and the product of the
    weight-decorated restrictions of torus_restriction_un (a nonzero
    Laurent multiple of the same top form).
    """
    char_prod = LaurentForm.one(n)
    for k in range(1, n + 1):
        char_prod = char_prod * character_restriction_form(n, k)
    weighted = LaurentForm.one(n)
    for k in range(1, n + 1):
        weighted = weighted * torus_restriction_un(n, k)
    return char_prod, weighted
