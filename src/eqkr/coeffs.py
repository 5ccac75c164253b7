"""Coefficient arithmetic for K*(pt) and KR*(pt), Z/8-graded.

Degree-8 periodicity is collapsed: the periodicity class of degree -8
is identified with 1, which forces beta^4 = 1 on the complex side (the
complexification of the periodicity class is beta^4).  After the
collapse:

  * K*(pt)  = Z[beta]/(beta^4 - 1), beta in degree -2, with the
    conjugation beta -> -beta;
  * KR*(pt) has Z/8-homogeneous basis 1 (deg 0), eta (deg -1),
    eta^2 (deg -2), mu (deg -4) with relations 2 eta = 0, eta^3 = 0,
    eta mu = 0, mu^2 = 4.

The realification r and complexification c between them satisfy
c(1)=1, c(eta)=0, c(mu)=2 beta^2, r(1)=2, r(beta)=eta^2, r(beta^2)=mu,
r(beta^3)=0, the projection formula r(c(x) y) = x r(y), and
c(r(y)) = y + conj(y).
"""

from __future__ import annotations

from ._record import FrozenRecord

KR_BASIS = ("1", "eta", "eta2", "mu")
# The KO pattern of KR*(pt): the degree of each basis class, and the
# classes that generate a Z/2 (the others a free Z).  A Quaternionic-type
# summand carries the same pattern shifted by -4.
KR_DEGREE = {"1": 0, "eta": -1, "eta2": -2, "mu": -4}
KR_TORSION = frozenset({"eta", "eta2"})


class KCoeff(FrozenRecord):
    """Element of Z[beta]/(beta^4-1); c[i] is the coefficient of beta^i."""

    __slots__ = ("c",)

    def __init__(self, c=(0, 0, 0, 0)):
        object.__setattr__(self, "c", c)  # hot, as KRCoeff below

    @staticmethod
    def beta(i: int = 1) -> "KCoeff":
        v = [0, 0, 0, 0]
        v[i % 4] = 1
        return KCoeff(tuple(v))

    def __add__(self, other):
        return KCoeff(tuple(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        out = [0, 0, 0, 0]
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[(i + j) % 4] += a * b
        return KCoeff(tuple(out))

    def conj(self):
        """Complex conjugation: beta -> -beta."""
        return KCoeff(tuple(a if i % 2 == 0 else -a for i, a in enumerate(self.c)))

    def is_zero(self):
        return all(a == 0 for a in self.c)


class KRCoeff(FrozenRecord):
    """Normal form a + b.eta + c.eta^2 + d.mu with b, c taken mod 2."""

    __slots__ = ("one", "eta", "eta2", "mu")

    def __init__(self, one=0, eta=0, eta2=0, mu=0):
        # built thousands of times per verify job: the slots are set
        # directly, without the loop of Record._init
        setfield = object.__setattr__
        setfield(self, "one", one)
        setfield(self, "eta", eta % 2)  # eta and eta2 are KR_TORSION
        setfield(self, "eta2", eta2 % 2)
        setfield(self, "mu", mu)

    @staticmethod
    def basis(name: str) -> "KRCoeff":
        """The basis class named in KR_BASIS, as one shared record."""
        return _KR_BASIS_RECORDS[name]

    def as_dict(self):
        return {"1": self.one, "eta": self.eta, "eta2": self.eta2, "mu": self.mu}

    def __add__(self, other):
        return KRCoeff(self.one + other.one, self.eta + other.eta,
                       self.eta2 + other.eta2, self.mu + other.mu)

    def __mul__(self, other):
        if isinstance(other, int):
            return KRCoeff(self.one * other, self.eta * other,
                           self.eta2 * other, self.mu * other)
        # relations: eta^3 = 0, eta.mu = 0, mu^2 = 4
        one = self.one * other.one + 4 * self.mu * other.mu
        eta = self.one * other.eta + self.eta * other.one
        eta2 = (self.one * other.eta2 + self.eta2 * other.one
                + self.eta * other.eta)
        mu = self.one * other.mu + self.mu * other.one
        return KRCoeff(one, eta, eta2, mu)

    __rmul__ = __mul__

    def is_zero(self):
        return self.one == 0 and self.eta == 0 and self.eta2 == 0 and self.mu == 0


_KR_BASIS_RECORDS = {"1": KRCoeff(one=1), "eta": KRCoeff(eta=1),
                     "eta2": KRCoeff(eta2=1), "mu": KRCoeff(mu=1)}


def c_coeff(x: KRCoeff) -> KCoeff:
    """Complexification: ring map with c(eta) = 0, c(mu) = 2 beta^2."""
    return KCoeff((x.one, 0, 2 * x.mu, 0))


def r_coeff(y: KCoeff) -> KRCoeff:
    """Realification: additive, r(beta^i) cycles 2, eta^2, mu, 0."""
    a0, a1, a2, a3 = y.c
    del a3  # r(beta^3) = 0
    return KRCoeff(one=2 * a0, eta2=a1, mu=a2)


def r_pattern(i: int) -> KRCoeff:
    """r(beta^i) as a KRCoeff."""
    return r_coeff(KCoeff.beta(i))
