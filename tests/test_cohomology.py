import itertools
import pickle
import random

import numpy as np
import pytest

from d21alpha import cohomology, enveloping, linalg
from d21alpha.algebra import (
    F1, GENERATOR_INDEX, GENERATOR_NAMES, H1, H3, PARITY, X2, Y1, build_algebra,
)
from d21alpha.cli import main
from d21alpha.cohomology import (
    _PAIRS, ConsistencyError, DerivationMap, GradedLayout, compute_point,
    check_lemma_h_images, full_derivation_dims, graded_spaces, h1, psi,
    psi_lambda,
)
from d21alpha.enveloping import (
    J1_CODES, J3_CODES, THETA_BITS, VermaModule, decode, monomial_parity,
)
from helpers import chain_from_whole_identity, shifted, whole_identity, word

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


@pytest.fixture(scope="module")
def m0(alg):
    return VermaModule(alg, (0, 0, 0), (0, 0, 0))


def test_inner_derivation_of_highest_weight_vector(m0):
    """At lambda = 0, v has weight 0: D_v is the code-0 row of inner_vectors()."""
    layout = GradedLayout(m0, 0)
    row = layout.inner_vectors()[J1_CODES.index(0)]
    assert DerivationMap(0, row).defects(m0) == []
    # D_v(h) = lambda(h) v = 0, e and x kill v, f_k v and y_k v are basis monomials
    expected = np.zeros(layout.ncols, dtype=np.int64)
    for k in range(3):
        expected[layout.col(F1 + k, 0)] = 1
    for k in range(4):
        expected[layout.col(Y1 + k, THETA_BITS[k])] = 1
    assert (row == expected).all()


def test_is_outer_examples(m0):
    """D_v reduces to 0 modulo the inner span; a non-derivation is flagged."""
    layout = GradedLayout(m0, 0)
    row = layout.inner_vectors()[J1_CODES.index(0)]
    assert not linalg.reduce(graded_spaces(m0, 0)[1], row, P).any()
    bogus = np.zeros(layout.ncols, dtype=np.int64)
    bogus[layout.col(H1, 0)] = 1
    assert DerivationMap(0, bogus).defects(m0) != []


def test_top_weight_zero_monomial_is_annihilated(m233):
    """At lambda=(2,3,3), chi=0 the all-y weight-0 monomial generates nothing."""
    n = m233.w_index((0, 0, 0), 15)
    assert decode(n, P)[:3] == (4, 4, 4)
    assert not GradedLayout(m233, 0).inner_vectors()[J1_CODES.index(15)].any()


def test_zero_weight_space_dimensions(m233, m_generic, m_chi):
    kernel_even, inner_even = graded_spaces(m233, 0)
    assert (len(kernel_even), len(inner_even)) == (13, 7)
    assert not linalg.reduce(kernel_even, inner_even, P).any()
    # generic point: inner rank is full (8 per parity) and kernel equals it
    for parity in (0, 1):
        kernel, inner = graded_spaces(m_generic, parity)
        assert inner.shape == (8, 136)
        assert np.array_equal(kernel, inner)
    # chi(f1) != 0 forces every 0-weight derivation to be inner
    for parity in (0, 1):
        kernel, inner = graded_spaces(m_chi, parity)
        assert np.array_equal(kernel, inner)


def test_inner_contained_in_kernel_on_grid(alg):
    rng = random.Random(77)
    for _ in range(4):
        lam = tuple(rng.randrange(P) for _ in range(3))
        chi = tuple(rng.randrange(2) for _ in range(3))
        module = VermaModule(alg, lam, chi)
        for parity in (0, 1):
            kernel, inner = graded_spaces(module, parity)
            assert not linalg.reduce(kernel, inner, P).any(), (lam, chi, parity)


def test_kernel_vectors_decode_to_exact_derivations(alg):
    """Soundness of the graded system: every kernel vector is a derivation.

    At the chi != 0 inputs f^p wraps to chi(f), which the identity rows of
    the pairs (f_k, f_l) read.
    """
    for lam, chi in (((2, 3, 3), (0, 0, 0)), ((1, 4, 0), (1, 1, 0)),
                     ((1, 1, 1), (1, 1, 1)), ((2, 0, 3), (0, 1, 1))):
        module = VermaModule(alg, lam, chi)
        for parity in (0, 1):
            for row in graded_spaces(module, parity)[0]:
                assert DerivationMap(parity, row).defects(module) == []


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
    inner = graded_spaces(m233, 0)[1]
    for rep in result.representatives:
        assert rep.parity == 0
        assert rep.defects(m233) == []
        assert linalg.reduce(inner, rep.coords, P).any()


def _graded_systems(module):
    """The even 184 x 32 system h1 solves, and the 894 x 136 whole identity."""
    rows = whole_identity(module, 0).reshape(-1, 17 * 8)
    return GradedLayout(module, 0).equations(), rows[rows.any(axis=1)]


def test_h1_invariant_under_equation_row_permutation(m233):
    for system in _graded_systems(m233):
        reference = linalg.kernel_basis(system, P)
        for seed in (1, 2):
            perm = np.random.default_rng(seed).permutation(system.shape[0])
            assert np.array_equal(linalg.kernel_basis(system[perm], P), reference)


def test_h1_invariant_under_unknown_permutation(m233):
    for system in _graded_systems(m233):
        reference = linalg.kernel_basis(system, P)
        for seed in (3, 4):
            perm = np.random.default_rng(seed).permutation(system.shape[1])
            permuted = linalg.kernel_basis(system[:, perm], P)
            assert permuted.shape == reference.shape
            restored = np.zeros_like(permuted)
            restored[:, perm] = permuted
            assert np.array_equal(linalg.rref(restored, P)[0], reference)


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


@pytest.mark.parametrize("p, alpha, lam, chi, even, odd", [
    (5, 2, (2, 3, 3), (0, 0, 0), (1005, 999), (1000, 1000)),
    (5, 1, (3, 2, 2), (0, 0, 0), (1000, 1000), (1001, 1000)),
    (5, 3, (1, 2, 0), (0, 1, 0), (1000, 1000), (1000, 1000)),
    (7, 3, (2, 5, 5), (0, 0, 0), (2749, 2743), (2744, 2744)),
], ids=["2-2,3,3", "1-3,2,2", "3-1,2,0-chi", "p7-3-2,5,5"])
def test_full_oracle_dimensions_are_pinned(p, alpha, lam, chi, even, odd):
    """Absolute (dim Der, dim Ider), and their differences are the graded H^1."""
    module = VermaModule(build_algebra(p, alpha), lam, chi)
    assert full_derivation_dims(module, 0) == even
    assert full_derivation_dims(module, 1) == odd
    assert h1(module).sdim == (even[0] - even[1], odd[0] - odd[1])


def test_full_oracle_refuses_an_action_off_the_parity_grading(alg, monkeypatch):
    module = VermaModule(alg, (1, 1, 1), (0, 0, 0))
    mats = list(module.matrices())
    parity = monomial_parity(np.arange(module.dim, dtype=np.int64))
    odd, even = (int(np.flatnonzero(parity == q)[0]) for q in (1, 0))
    wrong = mats[H1].tolil()
    wrong[odd, even] = 1  # h1 is even: it cannot send an even monomial to an odd one
    mats[H1] = wrong.tocsr()
    monkeypatch.setattr(module, "matrices", lambda: mats)
    with pytest.raises(ConsistencyError, match="parity grading"):
        full_derivation_dims(module, 0)


def test_psi2_zero_extends_to_outer_derivation(alg):
    module = VermaModule(alg, psi_lambda(2, P), (0, 0, 0))
    built = psi(2, (1,), module)
    assert built.map.parity == 0
    assert built.map.defects(module) == []
    assert linalg.reduce(graded_spaces(module, 0)[1], built.map.coords, P).any()


def test_psi4_is_odd_and_outer(alg):
    module = VermaModule(alg, psi_lambda(4, P), (0, 0, 0))
    built = psi(4, (1,), module)
    assert built.map.parity == 1
    assert built.map.defects(module) == []
    assert linalg.reduce(graded_spaces(module, 1)[1], built.map.coords, P).any()


def test_psi1_is_linear_in_parameters(alg):
    module = VermaModule(alg, psi_lambda(1, P), (0, 0, 0))
    zero = psi(1, (0, 0, 0, 0, 0), module)
    assert not zero.map.coords.any()
    a = psi(1, (1, 0, 0, 0, 0), module).map
    b = psi(1, (0, 2, 0, 0, 0), module).map
    joint = psi(1, (1, 2, 0, 0, 0), module).map
    assert (joint.coords == (a.coords + b.coords) % P).all()


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
    kernel = graded_spaces(m233, 0)[0]
    hits = 0
    for row in kernel:
        for h in range(H1, H3 + 1):
            hits += int(bool(row[layout.col(h, 15)]))
    assert hits > 0


def test_compute_point_summary_is_picklable():
    s = compute_point(P, ALPHA, (2, 3, 0), (0, 0, 0))
    assert (s.dim_even, s.dim_odd) == (1, 0)
    assert pickle.loads(pickle.dumps(s)) == s


class _WordModule(VermaModule):
    """A module whose blocks are normal_form of whole words, with no crossing table."""

    def column(self, gens, betas):
        out = np.zeros((len(gens), len(betas), 16, 16), dtype=np.int64)
        for (s, g), (k, beta) in itertools.product(enumerate(gens), enumerate(betas)):
            space = self.weight_basis(shifted(self, beta, g))
            for c, n in enumerate(self.weight_basis(beta)):
                for m, v in self.normal_form([g] + word(monomial=n, p=self.p)).items():
                    out[s, k, space.index(m), c] = v
        return out


def test_slice_module_h1_matches_straightening(alg):
    """h1 of table modules across the slice against modules that straighten
    whole words: sdim, graded dims and representatives."""
    for lam in ((2, 3, 3), (2, 3, 0), (2, 0, 3), (3, 2, 2), (0, 0, 0), (1, 4, 2)):
        made = h1(VermaModule(alg, lam, (0, 0, 0)))
        direct = h1(_WordModule(alg, lam, (0, 0, 0)))
        assert made.sdim == direct.sdim, lam
        assert made.graded_dims == direct.graded_dims, lam
        assert made.to_json_dict() == direct.to_json_dict(), lam
        for a, b in zip(made.representatives, direct.representatives, strict=True):
            assert a.parity == b.parity and (a.coords == b.coords).all(), lam


def test_compute_point_across_interleaved_slices():
    """Points of alpha 1 and 2, chi 0 and not, taken in turn, each get their
    own answer; the process keeps one crossing table per algebra, whatever
    chi is.
    """
    rng = random.Random(11)
    slices = [(1, (0, 0, 0)), (2, (0, 0, 0)), (1, (1, 0, 3)), (2, (1, 0, 3))]
    special = [(2, 3, 3), (2, 3, 0), (3, 2, 2)]  # nonzero at chi = 0
    for k in range(16):
        alpha, chi = slices[(k // 2) * 3 % 4]
        lam = special[k % 3]
        if k % 4 >= 2:
            lam = tuple(rng.randrange(P) for _ in range(3))
        s = compute_point(P, alpha, lam, chi)
        fresh = h1(VermaModule(build_algebra(P, alpha), lam, chi))
        assert (s.dim_even, s.dim_odd) == fresh.sdim, (alpha, lam, chi)
    assert sorted(key[:2] for key in enveloping._TABLES) == [(P, 1), (P, 2)]


def test_compute_point_reduces_before_it_caches():
    """Unreduced inputs read the crossing table of their residues."""
    first = compute_point(P, ALPHA, (2, 3, 0), (1, 0, 0))
    again = compute_point(P, ALPHA + P, (7, -2, 5), (1 + P, 0, 0))
    assert [key[:2] for key in enveloping._TABLES] == [(P, ALPHA)]
    assert first == again
    assert again.alpha == ALPHA and again.chi_f == (1, 0, 0)


def _defects_by_pairs(phi, module):
    """Per-pair oracle of DerivationMap.defects on full 16p^3 module vectors.

    Returns the failing ordered pairs, and per ordered pair (a, b) the defect
    phi([a,b]) - s1 a.phi(b) + s2 b.phi(a) on the 16 monomials of weight
    beta_a + beta_b, by theta code (it is 0 off them).
    """
    p, alg = module.p, module.algebra
    layout = GradedLayout(module, phi.parity)
    images = np.zeros((17, module.dim), dtype=np.int64)
    for b in range(17):
        for code in layout.thetas[b]:
            n = module.w_index(alg.weights[b], code)
            images[b, n] = phi.coords[layout.col(b, code)]
    mats = module.matrices()
    bad, by_pair = [], {}
    for a in range(17):
        for b in range(17):
            lhs = sum(c * images[g] for g, c in alg.bracket_items[a][b])
            s1 = -1 if phi.parity and PARITY[a] else 1
            s2 = -1 if PARITY[b] and (phi.parity + PARITY[a]) % 2 else 1
            rhs = s1 * (mats[a] @ images[b]) - s2 * (mats[b] @ images[a])
            defect = (lhs - rhs) % p
            if defect.any():
                bad.append((GENERATOR_NAMES[a], GENERATOR_NAMES[b]))
            space = list(module.weight_basis(np.add(alg.weights[a], alg.weights[b])))
            assert not np.delete(defect, space).any()
            by_pair[a, b] = defect[space]
    return bad, by_pair


@pytest.mark.parametrize(
    "p,alpha,lam,chi", [(5, 2, (2, 3, 3), (0, 0, 0)), (7, 3, (1, 2, 0), (2, 0, 5))]
)
def test_defects_match_a_per_pair_loop(p, alpha, lam, chi):
    module = VermaModule(build_algebra(p, alpha), lam, chi)
    rng = np.random.default_rng(p)
    codes = np.array((J1_CODES, J3_CODES))
    found = 0
    for parity in (0, 1):
        layout = GradedLayout(module, parity)
        kernel = graded_spaces(module, parity)[0]
        for row in kernel:
            assert DerivationMap(parity, row).defects(module) == []
            assert _defects_by_pairs(DerivationMap(parity, row), module)[0] == []
        vectors = [rng.integers(0, p, 136) for _ in range(4)]
        for row in kernel[:4]:
            bumped = row.copy()
            bumped[rng.integers(136)] += 1
            vectors.append(bumped % p)
        for vec in vectors:
            phi = DerivationMap(parity, vec)
            expected, by_pair = _defects_by_pairs(phi, module)
            assert phi.defects(module) == expected
            found += len(expected)
            # the values defects reads, not only its failing pairs
            values = layout._operator(_PAIRS, vec.reshape(17, 8, 1))[..., 0]
            for e, (a, b) in enumerate(_PAIRS):
                rows = (PARITY[a] + PARITY[b] + parity) % 2
                assert (values[e] == by_pair[a, b][codes[rows]]).all()
                assert not by_pair[a, b][codes[1 - rows]].any()
    assert found  # the perturbed maps do fail the identity somewhere


def _assert_generator_pairs_suffice(module):
    """The lifted kernel of equations() against that of the whole identity.

    graded_spaces solves the generator pairs in the 32 coordinates of the
    generating set and lifts the kernel by the chain map, so this checks the
    generator-pair lemma and the chain together.
    """
    p = module.p
    for parity in (0, 1):
        rows = whole_identity(module, parity).reshape(-1, 17 * 8)
        whole = linalg.kernel_basis(rows[rows.any(axis=1)], p)
        assert np.array_equal(graded_spaces(module, parity)[0], whole), (
            p, module.lam, module.chi, parity,
        )


@pytest.mark.parametrize("chi", [(0, 0, 0), (1, 0, 3)])
def test_generator_pairs_suffice_on_a_whole_slice(alg, chi):
    for lam in itertools.product(range(P), repeat=3):
        _assert_generator_pairs_suffice(VermaModule(alg, lam, chi))


@pytest.mark.parametrize("p,alpha", [
    (7, 3), (13, 2), (31, 5), (101, 7), (10_000_019, 2),
])
def test_generator_pairs_suffice_at_psi_and_random_lambda(p, alpha):
    rng = random.Random(p)
    alg = build_algebra(p, alpha)
    points = [(psi_lambda(which, p), (0, 0, 0)) for which in (1, 2, 3, 4)]
    for chi in ((0, 0, 0), tuple(rng.randrange(p) for _ in range(3))):
        points.append((tuple(rng.randrange(p) for _ in range(3)), chi))
    for lam, chi in points:
        _assert_generator_pairs_suffice(VermaModule(alg, lam, chi))


def _chain_points():
    """(p, alpha, lambda, chi) of a p=5 slice sample, the psi residues at
    p=7 and p=31, and random points at p=101 and p=10,000,019."""
    rng = random.Random(25)
    slice_lams = rng.sample(list(itertools.product(range(P), repeat=3)), 12)
    points = [(P, ALPHA, lam, chi) for chi in ((0, 0, 0), (1, 0, 3))
              for lam in slice_lams]
    points += [(p, 3, psi_lambda(which, p), (0, 0, 0))
               for p in (7, 31) for which in (1, 2, 3, 4)]
    for p in (101, 10_000_019):
        for chi in ((0, 0, 0), tuple(rng.randrange(p) for _ in range(3))):
            points.append((p, 2, tuple(rng.randrange(p) for _ in range(3)), chi))
    return points


def test_chain_map_equals_the_whole_identity_construction():
    """chain_map reads its pairs' signed 8x8 slices; the oracle solves each
    step from the rows of the whole identity in the 136 unit coordinates."""
    for p, alpha, lam, chi in _chain_points():
        module = VermaModule(build_algebra(p, alpha), lam, chi)
        for parity in (0, 1):
            T = GradedLayout(module, parity).chain_map()
            assert np.array_equal(T, chain_from_whole_identity(module, parity)), (
                p, lam, chi, parity,
            )


def _graded_space_points():
    modules = [VermaModule(build_algebra(P, ALPHA), lam, chi)
               for chi in ((0, 0, 0), (1, 0, 3))
               for lam in itertools.product(range(P), repeat=3)]
    for p in (7, 31):
        alg = build_algebra(p, 3)
        modules += [VermaModule(alg, psi_lambda(which, p), (0, 0, 0))
                    for which in (1, 2, 3, 4)]
    return modules


def test_graded_spaces_equal_the_full_lift():
    """Both arrays against rref of the whole lifted kernel and of the inner
    vectors, computed here.  Where the two spans are equal graded_spaces
    returns one array for both; elsewhere it brings the lift to RREF."""
    shared = full = 0
    for module in _graded_space_points():
        p = module.p
        for parity in (0, 1):
            layout = GradedLayout(module, parity)
            T = layout.chain_map().reshape(layout.ncols, -1)
            lifted = linalg.kernel_basis(layout.equations(), p) @ T.T
            kernel, inner = graded_spaces(module, parity)
            point = (p, module.lam, module.chi, parity)
            assert np.array_equal(kernel, linalg.rref(lifted, p)[0]), point
            assert np.array_equal(inner, linalg.rref(layout.inner_vectors(), p)[0]), point
            if kernel is inner:
                shared += 1
            else:
                full += 1
                assert len(kernel) > len(inner), point
    assert shared and full
    psi1 = VermaModule(build_algebra(P, ALPHA), psi_lambda(1, P), (0, 0, 0))
    kernel, inner = graded_spaces(psi1, 0)
    assert (len(kernel), len(inner)) == (13, 7)


def test_graded_spaces_are_read_only(m233, m_generic):
    """The kernel and the inner span may be one array, so neither is writable."""
    for module in (m233, m_generic):
        for parity in (0, 1):
            for space in graded_spaces(module, parity):
                with pytest.raises(ValueError, match="read-only"):
                    space[0, 0] = 1


# Mutation checks: one fault each, and the check that must catch it.


@pytest.mark.parametrize("g", [H1, X2], ids=["h-step", "x-step"])
def test_a_wrong_chain_step_raises(alg, monkeypatch, g):
    """Doubling one step of T: the chain-pair rows of equations() catch it.

    At psi1's point a doubled h step keeps the inner span inside the lifted
    kernel and leaves sdim (5, 0); only the chain rows see it.
    """
    original = GradedLayout.chain_map

    def doubled(self):
        T = original(self).copy()
        T[g] = 2 * T[g] % self.module.p
        return T

    monkeypatch.setattr(GradedLayout, "chain_map", doubled)
    with pytest.raises(ConsistencyError, match="chain map"):
        h1(VermaModule(alg, psi_lambda(1, P), (0, 0, 0)))


def test_a_kernel_of_the_inner_dimension_but_another_span_raises(alg, monkeypatch):
    """graded_spaces returns the inner RREF as the kernel only where the
    lifted kernel lies in the inner span, not merely where the two have the
    same dimension.  A system whose kernel is the first coordinates of the
    generating set, as many as the inner dimension, must fail h1's check."""

    def wrong(self):
        dim = len(linalg.rref(self.inner_vectors(), self.module.p)[0])
        return np.eye(8 * 4, dtype=np.int64)[dim:]

    monkeypatch.setattr(GradedLayout, "equations", wrong)
    with pytest.raises(ConsistencyError, match="inner derivations"):
        h1(VermaModule(alg, (1, 1, 1), (0, 0, 0)))


def test_h1_names_the_representative_that_fails(alg, monkeypatch):
    """h1 checks the representatives of a parity in one evaluation, one
    column each, and names a failing one by its column."""
    original = GradedLayout._operator

    def faulty(self, pairs, coords):
        values = original(self, pairs, coords)
        if coords.shape[2] == 6:  # the six representatives at psi1's point
            values = values.copy()
            values[-1, 3, 4] = 1
        return values

    monkeypatch.setattr(GradedLayout, "_operator", faulty)
    with pytest.raises(ConsistencyError, match="representative 4 of parity 0 fails"):
        h1(VermaModule(alg, psi_lambda(1, P), (0, 0, 0)))


def test_a_sign_fault_in_the_identity_disagrees_with_the_oracle(alg, monkeypatch):
    """Flipping s2 in the one builder moves T and the system together.

    The chain rows still vanish, as T comes from the same builder, but the
    graded dimensions are wrong: the ungraded oracle, which writes its own
    signs, disagrees with them.  h1 itself raises, because the inner
    derivations leave the kernel.
    """
    original = cohomology._signs

    def flipped(parity, a, b):
        s1, s2 = original(parity, a, b)
        return s1, -s2

    monkeypatch.setattr(cohomology, "_signs", flipped)
    module = VermaModule(alg, psi_lambda(1, P), (0, 0, 0))
    kernel, inner = graded_spaces(module, 0)
    der, ider = full_derivation_dims(module, 0)
    assert len(kernel) - len(inner) != der - ider
    with pytest.raises(ConsistencyError, match="inner derivations"):
        h1(module)


def test_psi_zero_extension_failure_names_a_pair(alg, monkeypatch, capsys):
    original = cohomology._psi_theta_images

    def dropped(which, params, module):
        img, notes = original(which, params, module)
        img.pop(min(img))  # lose the image of one listed generator
        return img, notes

    monkeypatch.setattr(cohomology, "_psi_theta_images", dropped)
    module = VermaModule(alg, psi_lambda(2, P), (0, 0, 0))
    with pytest.raises(ConsistencyError, match=r"at pair \(\w+, \w+\)"):
        psi(2, (1,), module)
    code = main(["verify-psi", "--which", "2", "--p", "5", "--alpha", "2"])
    assert code == 2
    assert "zero extension fails the derivation identity" in capsys.readouterr().err
