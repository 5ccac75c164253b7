import pytest

from eqkr.torus import (
    LaurentForm,
    character_restriction_form,
    top_form,
    torus_restriction_un,
    weyl_denominator,
    weyl_denominator_product,
)


def e(n, *idx):
    exps = tuple(1 if j in idx else 0 for j in range(n))
    return LaurentForm.monomial(n, exps)


def test_form_model_basics():
    f = e(2, 0) + e(2, 1)
    df = f.d()
    assert df == LaurentForm.monomial(2, (0, 0), (0,)) + \
        LaurentForm.monomial(2, (0, 0), (1,))
    # d^2 = 0 on polynomial 0-forms
    assert (e(3, 0) * e(3, 1)).d().d().is_zero()
    # wedge anticommutativity
    a = e(2, 0).d()
    b = e(2, 1).d()
    assert a * b == -(b * a)
    assert (a * a).is_zero()


def test_restriction_examples():
    assert torus_restriction_un(1, 1) == \
        LaurentForm.monomial(1, (1,), (0,))
    got = torus_restriction_un(2, 1)
    assert got == LaurentForm.monomial(2, (1, 0), (0,)) + \
        LaurentForm.monomial(2, (0, 1), (1,))
    got = torus_restriction_un(2, 2)
    # e1 e2 (x) d(e1 e2) = e1 e2 (e2 de1 + e1 de2)
    assert got == LaurentForm.monomial(2, (1, 2), (0,)) + \
        LaurentForm.monomial(2, (2, 1), (1,))


def test_restriction_rejects_k_out_of_range():
    for k in (0, 3):
        with pytest.raises(ValueError):
            torus_restriction_un(2, k)


def test_character_restriction_jacobian_n2():
    lhs = character_restriction_form(2, 1) * character_restriction_form(2, 2)
    # d(e1+e2) ^ d(e1 e2) = (e1 - e2) de1 de2
    assert lhs == (e(2, 0) - e(2, 1)) * top_form(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_denominator_identity(n):
    char_prod, weighted = weyl_denominator_product(n)
    assert char_prod == weyl_denominator(n) * top_form(n)
    assert not char_prod.is_zero()
    assert not weighted.is_zero()
    # the weighted product is the monomial unit e1...en times
    # prod (e_i + e_j) times the same Weyl-denominator form
    expect = LaurentForm.monomial(n, (1,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            expect = expect * (e(n, i) + e(n, j))
    expect = expect * weyl_denominator(n) * top_form(n)
    assert weighted == expect


def test_vandermonde_factor_n3():
    van = weyl_denominator(3)
    triple = (e(3, 0) - e(3, 1)) * (e(3, 0) - e(3, 2)) * (e(3, 1) - e(3, 2))
    assert van == triple
