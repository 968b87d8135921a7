import pickle
import random

import numpy as np
import pytest

from d21alpha.algebra import GENERATOR_INDEX, build_algebra
from d21alpha.cohomology import (
    ConsistencyError, DerivationMap, GradedLayout, compute_point,
    check_f_coupling, check_lemma_h_images, full_derivation_dims, h1,
    inner_derivation, is_outer, psi, psi_lambda, zero_weight_derivations,
    zero_weight_inner_space,
)
from d21alpha.enveloping import ModuleVector, PBWMonomial, VermaModule
from d21alpha import linalg

P = 5
ALPHA = 2


@pytest.fixture(scope="module")
def alg():
    return build_algebra(P, ALPHA)


@pytest.fixture(scope="module")
def m233(alg):
    return VermaModule(alg, (2, 3, 3), (0, 0, 0))


@pytest.fixture(scope="module")
def m_generic(alg):
    return VermaModule(alg, (1, 1, 1), (0, 0, 0))


@pytest.fixture(scope="module")
def m_chi(alg):
    return VermaModule(alg, (2, 3, 3), (1, 0, 0))


def test_inner_derivation_of_highest_weight_vector(m233):
    d = inner_derivation(m233.highest_weight_vector(), m233)
    assert d.parity == 0
    for i, h in enumerate(("h1", "h2", "h3")):
        assert d.image(h) == ModuleVector(P, {0: m233.lam[i]})
    for e in ("e1", "e2", "e3"):
        assert d.image(e).is_zero()
    assert d.image("f1") == ModuleVector(
        P, {PBWMonomial((1, 0, 0), (0, 0, 0, 0)).index(P): 1}
    )
    assert d.defects(m233) == []


def test_inner_derivation_rejects_mixed_parity(m233):
    mixed = ModuleVector(P, {0: 1, PBWMonomial((0, 0, 0), (1, 0, 0, 0)).index(P): 1})
    with pytest.raises(ValueError):
        inner_derivation(mixed, m233)


def test_inner_derivation_linear(m233):
    rng = random.Random(31)
    even_indices = [n for n in range(m233.dim) if bin(n & 15).count("1") % 2 == 0]
    for _ in range(5):
        m1 = ModuleVector(P, {rng.choice(even_indices): rng.randrange(1, P)})
        m2 = ModuleVector(P, {rng.choice(even_indices): rng.randrange(1, P)})
        lhs = inner_derivation(m1 + m2, m233)
        rhs = inner_derivation(m1, m233).add(inner_derivation(m2, m233))
        for g in range(17):
            assert lhs.images[g] == rhs.images[g]


def test_top_weight_zero_monomial_is_annihilated(m233):
    """At lambda=(2,3,3), chi=0 the all-y weight-0 monomial generates nothing."""
    n = m233.w_index((0, 0, 0), 15)
    assert PBWMonomial.from_index(n, P).i == (4, 4, 4)
    d = inner_derivation(ModuleVector.basis_vector(P, n), m233)
    assert d.is_zero()


def test_zero_weight_space_dimensions(m233, m_generic, m_chi):
    kernel_even = zero_weight_derivations(m233, 0)
    inner_even = zero_weight_inner_space(m233, 0)
    assert (kernel_even.dim, inner_even.dim) == (13, 7)
    assert kernel_even.contains_subspace(inner_even)
    assert kernel_even.dim - inner_even.dim == 6
    # generic point: inner rank is full (8 per parity) and kernel equals it
    for parity in (0, 1):
        kernel = zero_weight_derivations(m_generic, parity)
        inner = zero_weight_inner_space(m_generic, parity)
        assert inner.dim == 8
        assert kernel.dim == inner.dim
        assert kernel == inner
    # chi(f1) != 0 forces every 0-weight derivation to be inner
    for parity in (0, 1):
        kernel = zero_weight_derivations(m_chi, parity)
        inner = zero_weight_inner_space(m_chi, parity)
        assert kernel == inner


def test_inner_contained_in_kernel_on_grid(alg):
    rng = random.Random(77)
    for _ in range(4):
        lam = tuple(rng.randrange(P) for _ in range(3))
        chi = tuple(rng.randrange(2) for _ in range(3))
        module = VermaModule(alg, lam, chi)
        for parity in (0, 1):
            kernel = zero_weight_derivations(module, parity)
            inner = zero_weight_inner_space(module, parity)
            assert kernel.contains_subspace(inner), (lam, chi, parity)


def test_kernel_vectors_decode_to_exact_derivations(alg):
    """Round-trip soundness of the graded system assembly."""
    for lam, chi in (((2, 3, 3), (0, 0, 0)), ((1, 4, 0), (1, 1, 0))):
        module = VermaModule(alg, lam, chi)
        for parity in (0, 1):
            layout = GradedLayout(module, parity)
            kernel = zero_weight_derivations(module, parity)
            for row in kernel.basis:
                phi = layout.decode(row)
                assert phi.defects(module) == []
                assert phi.is_zero_weight(module)
                assert (layout.encode(phi.images) == row).all()


def test_h1_reference_points(alg):
    expected = {
        ((2, 3, 3), (0, 0, 0)): (6, 0),
        ((2, 3, 0), (0, 0, 0)): (1, 0),
        ((2, 0, 3), (0, 0, 0)): (1, 0),
        ((3, 2, 2), (0, 0, 0)): (0, 1),
        ((0, 0, 0), (0, 0, 0)): (0, 0),
        ((2, 3, 3), (1, 0, 0)): (0, 0),
    }
    for (lam, chi), sdim in expected.items():
        module = VermaModule(alg, lam, chi)
        assert h1(module).sdim == sdim, (lam, chi)


def test_h1_representatives_are_verified_outer_classes(m233):
    result = h1(m233)
    assert result.sdim == (6, 0)
    assert len(result.representatives) == 6
    for rep in result.representatives:
        assert rep.parity == 0
        assert rep.defects(m233) == []
        assert is_outer(rep, m233)


def test_is_outer_examples(m233):
    assert not is_outer(inner_derivation(m233.highest_weight_vector(), m233), m233)
    bogus = DerivationMap(0, {g: ModuleVector(P, {0: 1}) for g in range(17)})
    with pytest.raises(ValueError):
        is_outer(bogus, m233)


def test_is_outer_general_path_for_non_zero_weight_maps(m233):
    # D_m for m = f1 (x) v has weight lambda - 2eps1 != 0: the ungraded route
    f1v = ModuleVector(P, {PBWMonomial((1, 0, 0), (0, 0, 0, 0)).index(P): 1})
    shifted_inner = inner_derivation(f1v, m233)
    assert not shifted_inner.is_zero_weight(m233)
    assert not is_outer(shifted_inner, m233)
    # adding an inner shift to an outer class keeps it outer
    rep = h1(m233).representatives[0]
    mixed = rep.add(shifted_inner)
    assert not mixed.is_zero_weight(m233)
    assert is_outer(mixed, m233)


def test_h1_invariant_under_equation_row_permutation(m233):
    layout = GradedLayout(m233, 0)
    system = layout.equations()
    reference = linalg.kernel_basis(system, P)
    for seed in (1, 2):
        perm = np.random.default_rng(seed).permutation(system.shape[0])
        assert linalg.kernel_basis(system[perm], P) == reference


def test_h1_invariant_under_unknown_permutation(m233):
    layout = GradedLayout(m233, 0)
    system = layout.equations()
    reference = linalg.kernel_basis(system, P)
    for seed in (3, 4):
        perm = np.random.default_rng(seed).permutation(system.shape[1])
        permuted = linalg.kernel_basis(system[:, perm], P)
        assert permuted.dim == reference.dim
        restored = np.zeros_like(permuted.basis)
        restored[:, perm] = permuted.basis
        assert linalg.Subspace.from_vectors(restored, system.shape[1], P) == reference


def test_h1_json_round_trips_deterministically(m233):
    a = h1(m233).to_json_dict()
    b = h1(VermaModule(m233.algebra, (2, 3, 3), (0, 0, 0))).to_json_dict()
    assert a == b
    assert a["h1"] == {"even": 6, "odd": 0}
    assert len(a["representatives"]) == 6
    assert set(a["representatives"][0]["images"]) == set(
        GENERATOR_INDEX
    )


def test_graded_matches_full_oracle_even_parity(m233):
    result = h1(m233)
    der, ider = full_derivation_dims(m233, 0)
    der0, ider0 = result.graded_dims[0]
    assert der - ider == result.dim_even
    assert der == der0 + ider - ider0


def test_full_oracle_refuses_large_p():
    module = VermaModule(build_algebra(11, 2), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        full_derivation_dims(module, 0)


def test_psi2_zero_extends_to_outer_derivation(alg):
    module = VermaModule(alg, psi_lambda(2, P), (0, 0, 0))
    built = psi(2, (1,), module)
    assert built.completion == "zero_extension"
    assert built.map.parity == 0
    assert built.map.defects(module) == []
    assert is_outer(built.map, module)


def test_psi4_is_odd_and_outer(alg):
    module = VermaModule(alg, psi_lambda(4, P), (0, 0, 0))
    built = psi(4, (1,), module)
    assert built.map.parity == 1
    assert is_outer(built.map, module)


def test_psi1_is_linear_in_parameters(alg):
    module = VermaModule(alg, psi_lambda(1, P), (0, 0, 0))
    zero = psi(1, (0, 0, 0, 0, 0), module)
    assert zero.map.is_zero()
    a = psi(1, (1, 0, 0, 0, 0), module).map
    b = psi(1, (0, 2, 0, 0, 0), module).map
    joint = psi(1, (1, 2, 0, 0, 0), module).map
    for g in range(17):
        assert joint.images[g] == a.images[g] + b.images[g]


def test_psi_rejects_wrong_regime(alg):
    module = VermaModule(alg, (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        psi(2, (1,), module)
    module_chi = VermaModule(alg, psi_lambda(2, P), (1, 0, 0))
    with pytest.raises(ValueError):
        psi(2, (1,), module_chi)
    module_ok = VermaModule(alg, psi_lambda(1, P), (0, 0, 0))
    with pytest.raises(ValueError):
        psi(1, (1,), module_ok)  # wrong parameter count


def test_lemma_h_images_clean(alg):
    for lam, chi in (((1, 4, 2), (0, 0, 0)), ((2, 3, 3), (0, 0, 0)),
                     ((2, 3, 3), (0, 1, 0))):
        module = VermaModule(alg, lam, chi)
        assert check_lemma_h_images(module) == [], (lam, chi)


def test_lemma_h_images_support_is_real_at_special_point(m233):
    """The allowance is not vacuous: some basis derivation hits w_0^{1111}."""
    layout = GradedLayout(m233, 0)
    kernel = zero_weight_derivations(m233, 0)
    target = m233.w_index((0, 0, 0), 15)
    hits = 0
    for row in kernel.basis:
        phi = layout.decode(row)
        for h in ("h1", "h2", "h3"):
            hits += int(bool(phi.image(h).get(target)))
    assert hits > 0


def test_f_coupling_clean(alg):
    for lam, chi in (((2, 3, 3), (0, 0, 0)), ((1, 1, 1), (1, 1, 1)),
                     ((2, 0, 3), (0, 1, 1))):
        module = VermaModule(alg, lam, chi)
        assert check_f_coupling(module) == [], (lam, chi)


def test_compute_point_summary_is_picklable():
    s = compute_point(P, ALPHA, (2, 3, 0), (0, 0, 0), diagnostics=True)
    assert (s.dim_even, s.dim_odd) == (1, 0)
    assert s.h_image_violations == () and s.coupling_violations == ()
    assert pickle.loads(pickle.dumps(s)) == s


def test_layout_encode_rejects_off_block_support(m233):
    layout = GradedLayout(m233, 0)
    images = {g: ModuleVector(P) for g in range(17)}
    images[GENERATOR_INDEX["h1"]] = ModuleVector(P, {1: 1})  # wrong weight space
    with pytest.raises(ValueError):
        layout.encode(images)
