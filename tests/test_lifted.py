import pytest

from matrix_oracle import (lifted_matrix, lifted_matrix_mul,
                           pi_is_homomorphism)
from paulidecomp.algebra import lifted_spec, pauli_spec
from paulidecomp.claims import corollary52_53_check
from paulidecomp.groupcore import SubgroupHandle, isomorphic
from paulidecomp.lifted import lifted_group, pi_image_group, pi_kernel
from paulidecomp.pauli import pauli_group


@pytest.mark.parametrize("p,m,n,order", [
    (3, 1, 1, 27), (3, 2, 1, 729), (2, 1, 1, 8), (2, 1, 2, 32), (2, 2, 1, 64),
])
def test_order_formula(p, m, n, order):
    spec = lifted_spec(p, m, n)
    assert lifted_group(spec).order == order


@pytest.mark.parametrize("p,m,n", [
    (3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 1, 2), (3, 1, 2),
])
def test_matrix_oracle_agreement(p, m, n, assert_faithful_representation):
    # one alpha and one beta unit per register and basis element p^i of
    # GF(p^m)
    spec = lifted_spec(p, m, n)
    zero = (0,) * n
    gens = []
    for j in range(n):
        for i in range(m):
            unit = tuple(p ** i if k == j else 0 for k in range(n))
            gens += [spec.element(unit, zero), spec.element(zero, unit)]
    assert_faithful_representation(
        spec, gens, lambda g: lifted_matrix(spec, g),
        lambda a, b: lifted_matrix_mul(spec, a, b))


def test_pi_homomorphism_exhaustive_gf9():
    spec = lifted_spec(3, 2, 1)
    assert pi_is_homomorphism(spec) is True


def test_pi_homomorphism_qubit_cases():
    for p, m, n in ((2, 1, 1), (2, 1, 2), (2, 2, 1)):
        assert pi_is_homomorphism(lifted_spec(p, m, n)) is True


def test_kernel_size():
    # kernel = scalars with zero trace, so p^(m-1) elements
    assert len(pi_kernel(lifted_spec(3, 1, 1))) == 1
    assert len(pi_kernel(lifted_spec(3, 2, 1))) == 3
    assert len(pi_kernel(lifted_spec(2, 2, 1))) == 2


def test_quotient_is_pauli_group_odd():
    spec = lifted_spec(3, 2, 1)
    g = lifted_group(spec)
    members = tuple(sorted(g.index[k] for k in pi_kernel(spec)))
    assert g.closure_indices(members) == members
    kernel = SubgroupHandle(g, members)
    quotient = g.quotient(kernel)
    image = pi_image_group(spec)
    assert quotient.order == image.order == 243
    ok, _ = isomorphic(quotient, image)
    assert ok
    ok, _ = isomorphic(image, pauli_group(pauli_spec(3, 2, 1)))
    assert ok


def test_image_order_p2():
    # p = 2 image carries doubled-trace phases, order 2^(2nm+1)
    assert pi_image_group(lifted_spec(2, 1, 2)).order == 32
    assert pi_image_group(lifted_spec(2, 2, 1)).order == 32


def test_cor52_odd_m1():
    rep = corollary52_53_check(3, 1, 1)
    assert rep.claim == "cor5.2"
    assert rep.status == "confirmed"


def test_cor52_odd_m2_inconsistent():
    rep = corollary52_53_check(3, 2, 1)
    assert rep.status == "inconsistent_in_paper"


def test_cor53_qubit_chains():
    for m, n in ((1, 2), (2, 1)):
        rep = corollary52_53_check(2, m, n)
        assert rep.claim == "cor5.3"
        assert rep.status == "confirmed"
    # single qubit image is too small to split into two factors
    rep = corollary52_53_check(2, 1, 1)
    assert rep.status == "refuted_at_desk_scale"
