import itertools

import pytest

from paulidecomp.groupcore import isomorphic
from paulidecomp.lifted import (LiftedPauliSpec, corollary52_53_check,
                                lifted_group, lifted_matrix,
                                lifted_matrix_mul, pi_image_group,
                                pi_is_homomorphism, pi_kernel, pi_map)
from paulidecomp.pauli import PauliGroupSpec, pauli_group


@pytest.mark.parametrize("p,m,n,order", [
    (3, 1, 1, 27), (3, 2, 1, 729), (2, 1, 1, 8), (2, 1, 2, 32), (2, 2, 1, 64),
])
def test_order_formula(p, m, n, order):
    spec = LiftedPauliSpec(p, m, n)
    assert lifted_group(spec).order == order


@pytest.mark.parametrize("p,m,n", [(3, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_matrix_oracle_agreement(p, m, n):
    spec = LiftedPauliSpec(p, m, n)
    els = list(spec.elements())
    step = 7 if len(els) > 100 else 1
    for g, h in itertools.product(els[::step], repeat=2):
        prod = spec.mul(g, h)
        assert lifted_matrix(spec, prod) == \
            lifted_matrix_mul(spec, lifted_matrix(spec, g),
                              lifted_matrix(spec, h))


def test_pi_homomorphism_exhaustive_gf9():
    spec = LiftedPauliSpec(3, 2, 1)
    assert pi_is_homomorphism(spec) is True


def test_pi_homomorphism_qubit_cases():
    for p, m, n in ((2, 1, 1), (2, 1, 2), (2, 2, 1)):
        assert pi_is_homomorphism(LiftedPauliSpec(p, m, n)) is True


def test_kernel_size():
    # kernel = scalars with zero trace, so p^(m-1) elements
    assert len(pi_kernel(LiftedPauliSpec(3, 1, 1))) == 1
    assert len(pi_kernel(LiftedPauliSpec(3, 2, 1))) == 3
    assert len(pi_kernel(LiftedPauliSpec(2, 2, 1))) == 2


def test_quotient_is_pauli_group_odd():
    spec = LiftedPauliSpec(3, 2, 1)
    g = lifted_group(spec)
    kernel = g.subgroup(sorted(g.index[k] for k in pi_kernel(spec)))
    quotient = g.quotient(kernel)
    image = pi_image_group(spec)
    assert quotient.order == image.order == 243
    ok, _ = isomorphic(quotient, image)
    assert ok
    ok, _ = isomorphic(image, pauli_group(PauliGroupSpec(3, 2, 1)))
    assert ok


def test_image_order_p2():
    # p = 2 image carries doubled-trace phases, order 2^(2nm+1)
    assert pi_image_group(LiftedPauliSpec(2, 1, 2)).order == 32
    assert pi_image_group(LiftedPauliSpec(2, 2, 1)).order == 32


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
