import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d21alpha.algebra import (
    E1, E2, F1, GENERATOR_INDEX, H1, H3, PARITY, X1, Y1, Y4, build_algebra,
    generator_weight, representation_defects,
)
from d21alpha.cohomology import h1
from d21alpha.enveloping import (
    DERIVED_GENS, J1_CODES, J3_CODES, ActionSlice, ConsistencyError, VermaModule,
    decode, encode, monomial_parity, monomial_weight, theta_tuple,
    verify_module_axioms,
)
from helpers import with_perturbed_bracket, word

P = 5
ALPHA = 2
LAM = (2, 3, 3)


@pytest.fixture(scope="module")
def alg():
    return build_algebra(P, ALPHA)


@pytest.fixture(scope="module")
def module(alg):
    return VermaModule(alg, LAM, (0, 0, 0))


@pytest.fixture(scope="module")
def module_chi(alg):
    return VermaModule(alg, LAM, (1, 0, 0))


def test_monomial_index_bijection():
    seen = set()
    for i1 in range(P):
        for i2 in range(P):
            for i3 in range(P):
                for code in range(16):
                    j = theta_tuple(code)
                    n = encode(i1, i2, i3, code, P)
                    assert 0 <= n < 16 * P**3
                    assert decode(n, P) == (i1, i2, i3, code)
                    # the y's are the only odd letters of the monomial
                    odd_letters = sum(PARITY[Y1 + k] * jk for k, jk in enumerate(j))
                    assert monomial_parity(n) == odd_letters % 2
                    seen.add(n)
    assert len(seen) == 16 * P**3
    assert (J1_CODES, J3_CODES) == (
        tuple(c for c in range(16) if sum(theta_tuple(c)) % 2 == 0),
        tuple(c for c in range(16) if sum(theta_tuple(c)) % 2 == 1),
    )


@pytest.fixture(scope="module", params=[5, 7])
def codec_module(request):
    p = request.param
    rng = random.Random(p)
    lam = tuple(rng.randrange(p) for _ in range(3))
    return VermaModule(build_algebra(p, 2), lam, (0, 0, 0))


def test_codec_array_decode_matches_scalar(codec_module):
    p = codec_module.p
    n = np.arange(codec_module.dim, dtype=np.int64)
    arrays = decode(n, p)
    assert (encode(*arrays, p) == n).all()
    assert (monomial_parity(n) == [monomial_parity(k) for k in range(len(n))]).all()
    for k in range(codec_module.dim):
        assert tuple(int(a[k]) for a in arrays) == decode(k, p)


def test_codec_weights_match_weight_codes_and_h_diagonals(codec_module):
    p = codec_module.p
    n = np.arange(codec_module.dim, dtype=np.int64)
    weights = monomial_weight(n, codec_module.lam, p)
    assert ((weights[0] * p + weights[1]) * p + weights[2]
            == codec_module.weight_codes()).all()
    for h in range(H1, H3 + 1):
        diag = codec_module.action_matrix(h).diagonal()
        assert (diag == weights[h - H1]).all()


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([5, 7]),
    exps=st.tuples(*[st.integers(0, 6)] * 3),
    code=st.integers(0, 15),
    lam=st.tuples(*[st.integers(0, 6)] * 3),
)
def test_codec_round_trip_and_weight(p, exps, code, lam):
    i1, i2, i3 = (e % p for e in exps)
    n = encode(i1, i2, i3, code, p)
    assert decode(n, p) == (i1, i2, i3, code)
    # lambda plus the generator weights of the letters of the monomial
    letters = [(F1 + k, e) for k, e in enumerate((i1, i2, i3))]
    letters += [(Y1 + k, jk) for k, jk in enumerate(theta_tuple(code))]
    expected = tuple(
        (lam[t] + sum(e * generator_weight(g)[t] for g, e in letters)) % p
        for t in range(3)
    )
    assert monomial_weight(n, lam, p) == expected
    module = VermaModule(build_algebra(p, 1), lam, (0, 0, 0))
    assert module.w_index(expected, code) == n


def test_normal_form_single_f(module):
    got = module.normal_form(word(["f1"]))
    assert got == {encode(1, 0, 0, 0b0000, P): 1}


def test_normal_form_e_then_f_gives_lambda(module):
    # e1 f1 v = f1 e1 v + h1 v = lambda_1 v
    assert module.normal_form(word(["e1", "f1"])) == {0: LAM[0] % P}


def test_normal_form_f_power_reduces_to_chi(module, module_chi):
    power = word(["f1"] * P)
    assert module.normal_form(power) == {}
    assert module_chi.normal_form(power) == {0: 1}
    # twice around: chi^2
    assert module_chi.normal_form(word(["f1"] * (2 * P))) == {0: 1}


def test_normal_form_odd_square_vanishes(module):
    assert module.normal_form(word(["y1", "y1"])) == {}
    assert module.normal_form(word(["f2", "y3", "y3"])) == {}


def test_normal_form_scalar_and_names(module):
    a = module.normal_form(word(["f2"]), scalar=3)
    b = module.normal_form([GENERATOR_INDEX["f2"]])
    assert a == {n: 3 * c % P for n, c in b.items()}


def test_normal_form_annihilates_with_positive_tail(module):
    assert module.normal_form(word(["e2"])) == {}
    assert module.normal_form(word(["x3"])) == {}
    # x2 f1 v = f1 x2 v - [f1,x2] v = -y2 v: the crossing matters
    y2v = encode(0, 0, 0, 0b0100, P)
    assert module.normal_form(word(["x2", "f1"])) == {y2v: P - 1}
    # h absorbs the weight
    assert module.normal_form(word(["h2"])) == {0: LAM[1] % P}


def test_confluence_randomized_rewrites(module):
    rng = random.Random(2024)
    for _ in range(1000):
        length = rng.randrange(0, 9)
        letters = [rng.randrange(17) for _ in range(length)]
        direct = module.normal_form(letters)
        shuffled = module.normal_form_randomized(letters, rng)
        assert direct == shuffled, letters


def test_dimension(module):
    assert module.dim == 16 * P**3 == 2000


def test_cartan_action_is_diagonal_with_weight_entries(module):
    mat = module.action_matrix(H1).todense()
    for n in range(module.dim):
        beta = module.weight_of_monomial(n)
        col = np.asarray(mat[:, n]).ravel()
        assert col[n] == beta[0]
        col[n] = 0
        assert not col.any()


def _column(module, g, n):
    """Column n of the action of the generator named g, as {index: coefficient}."""
    col = module.action_matrix(GENERATOR_INDEX[g])[:, n].tocoo()
    return {int(r): int(v) % P for r, v in zip(col.row, col.data) if v % P}


def test_f_action_wraps_with_chi(module, module_chi):
    top = encode(P - 1, 0, 0, 0b0000, P)
    assert _column(module, "f1", top) == {}
    assert _column(module_chi, "f1", top) == {0: 1}  # chi(f1)^p = 1


def test_act_examples(module):
    assert _column(module, "e2", 0) == {}  # e2 kills v
    y1v = encode(0, 0, 0, 0b1000, P)
    assert _column(module, "h2", y1v) == {y1v: (LAM[1] + 1) % P}
    y4v = encode(0, 0, 0, 0b0001, P)
    # x1 y4 v = -y4 x1 v + [x1,y4] v = (-(1+a)l1 + l2 + a*l3) v
    expected = (-(1 + ALPHA) * LAM[0] + LAM[1] + ALPHA * LAM[2]) % P
    assert _column(module, "x1", y4v) == {0: expected}


@pytest.mark.parametrize("fixture", ["module", "module_chi"])
def test_columns_agree_with_direct_straightening(fixture, request):
    """Closed-form, commutator and assembled blocks match the rewriting engine."""
    module = request.getfixturevalue(fixture)
    rng = random.Random(99)
    sample = [rng.randrange(module.dim) for _ in range(40)]
    for g in range(17):
        mat = module.action_matrix(g).tocsc()
        for n in sample:
            direct = module.normal_form([g] + word(monomial=n, p=module.p))
            col = mat[:, n].tocoo()
            assert {int(r): int(v) for r, v in zip(col.row, col.data)} == direct


@pytest.fixture
def reduced_columns(monkeypatch):
    """Every column read while the test runs holds residues in 1..p-1 only.

    ``block`` drops nothing itself: a zero left in a column would fall
    outside the allowed codes and an unreduced value would enter a block.
    """
    column = VermaModule.column

    def checked(module, g, n):
        out = column(module, g, n)
        assert all(0 < v < module.p for v in out.values()), (g, n, out)
        return out

    monkeypatch.setattr(VermaModule, "column", checked)


@pytest.mark.parametrize("p,chi,codes", [
    (5, (0, 0, 0), range(16)),
    (5, (1, 2, 3), range(16)),
    (31, (1, 2, 3), (0, 1, 6, 9, 14, 15)),
])
def test_crossing_edge_cases_match_direct_straightening(
    p, chi, codes, reduced_columns
):
    """Exponents 0 and p-1, where f^(i-j) wraps to chi, for every generator.

    Codes 6 and 9 hold y2 y3 and y1 y4, whose brackets put an f1 back into
    the f-segment.  At p=31 the all-(p-1) monomial is left out: the direct
    straightening takes seconds there.  The rewriting system is the oracle
    of a directly built module and of one that reads an ActionSlice.
    """
    alg = build_algebra(p, 2)
    module = VermaModule(alg, (1, 2, 3), chi)
    made = ActionSlice(alg, chi).module((1, 2, 3))
    for exps in itertools.product((0, 1, p - 1), repeat=3):
        if p > 5 and exps == (p - 1,) * 3:
            continue
        for code in codes:
            n = encode(*exps, code, p)
            letters = word(monomial=n, p=p)
            for g in range(17):
                expected = module.normal_form([g] + letters)
                assert module.column(g, n) == expected, (g, exps, code)
                assert made.column(g, n) == expected, (g, exps, code)


def test_blocks_do_not_depend_on_request_order():
    """The crossing cache holds no state of the column that filled it."""
    alg = build_algebra(7, 3)
    first, second = (VermaModule(alg, (1, 5, 2), (2, 0, 5)) for _ in range(2))
    rng = random.Random(5)
    requests = [
        (g, tuple(rng.randrange(7) for _ in range(3)))
        for g in range(17)
        for _ in range(6)
    ]
    got = {key: first.block(*key) for key in requests}
    shuffled = requests[:]
    rng.shuffle(shuffled)
    for key in shuffled:
        assert (second.block(*key) == got[key]).all(), key


def _slice_block_mismatches(action, lambdas, rng=None) -> list:
    """(lambda, g, beta) of each block where action.module(lambda) differs
    from a directly built module.

    Every block(g, weights[u]) that the derivation identity reads; with rng,
    also blocks at four random weights per lambda, so that columns of other
    f-exponents are evaluated.
    """
    alg, p = action.algebra, action.p
    bad = []
    for lam in lambdas:
        made, direct = action.module(lam), VermaModule(alg, lam, action.chi)
        betas = list(alg.weights)
        if rng:
            betas += [tuple(rng.randrange(p) for _ in range(3)) for _ in range(4)]
        for g in range(17):
            for beta in betas:
                if (made.block(g, beta) != direct.block(g, beta)).any():
                    bad.append((lam, g, beta))
    return bad


@pytest.mark.parametrize("p,alpha,chi,sample", [
    (5, 2, (0, 0, 0), None),  # every lambda of the slice
    (5, 3, (1, 2, 4), 12),
    (7, 3, (2, 0, 5), 12),
    (101, 3, (100, 100, 100), 12),  # the widest lanes
])
def test_slice_blocks_match_straightening(p, alpha, chi, sample, reduced_columns):
    """A slice-made module's blocks equal those of a directly built one."""
    action = ActionSlice(build_algebra(p, alpha), chi)
    lambdas = list(itertools.product(range(p), repeat=3))
    rng = random.Random(p)
    if sample:
        lambdas = rng.sample(lambdas, sample)
    assert _slice_block_mismatches(action, lambdas, rng if sample else None) == []


def test_slice_oracle_catches_a_wrong_reference_lambda():
    """A reference module at lambda = 2 e2 in place of e2 doubles every c2."""
    alg = build_algebra(5, 2)
    action = ActionSlice(alg, (0, 0, 0))
    references = list(action._references)
    references[2] = VermaModule(alg, (0, 2, 0), action.chi)
    action._references = tuple(references)
    lambdas = random.Random(5).sample(list(itertools.product(range(5), repeat=3)), 6)
    assert _slice_block_mismatches(action, lambdas)


def test_slice_oracle_catches_lanes_that_carry():
    """Lanes of 8 bits carry into each other at p=101 with chi = p-1.

    Every wrap there multiplies by the largest residue.  At p=5 the same
    fault leaves every compared block intact, so this case runs at p=101.
    """
    p = 101
    action = ActionSlice(build_algebra(p, 3), (p - 1,) * 3)
    action.lane_bits = 8
    rng = random.Random(p)
    lambdas = rng.sample(list(itertools.product(range(p), repeat=3)), 2)
    assert _slice_block_mismatches(action, lambdas, rng)


class _LaneModule(VermaModule):
    """Carries lane j of a slice's packed tails through ``_cross`` unpacked."""

    def __init__(self, action, j):
        super().__init__(action.algebra, (0, 0, 0), action.chi)
        self.action, self.shift = action, j * action.lane_bits

    def _tail(self, g, code):
        mask = (1 << self.action.lane_bits) - 1
        return {
            n: x >> self.shift & mask for n, x in self.action._tail(g, code).items()
        }


def test_slice_lanes_stay_below_their_bound():
    """The unreduced lanes at p=101 with chi = p-1 stay within 27 (p-1)^7.

    chi(f_k) = p-1 makes every wrap multiply by the largest residue.  Each
    lane is carried through the recursion on its own, and the packed column
    must equal the lanes shifted into place: no lane carried.
    """
    p = 101
    action = ActionSlice(build_algebra(p, 3), (p - 1,) * 3)
    w, bound = action.lane_bits, 27 * (p - 1) ** 7
    assert bound < 1 << w
    lanes = [_LaneModule(action, j) for j in range(4)]
    largest = 0
    for exps in itertools.product((0, 1, p - 2, p - 1), repeat=3):
        for code in range(16):
            for g in range(17):
                packed = action._cross(g, 0, exps, code)
                parts = [lane._cross(g, 0, exps, code) for lane in lanes]
                for n in set(packed).union(*parts):
                    values = [part.get(n, 0) for part in parts]
                    largest = max(largest, *values)
                    assert packed.get(n, 0) == sum(
                        v << j * w for j, v in enumerate(values)
                    ), (g, exps, code, n)
    assert 0 < largest <= bound


def test_block_rejects_action_leaving_its_weight_space(alg):
    # [e2, f2] = h2 + f1: e2 f2 v now has an f1 v term of the wrong weight
    broken = VermaModule(with_perturbed_bracket(alg, "e2", "f2", "f1", 1), LAM,
                         (0, 0, 0))
    f2v = encode(0, 1, 0, 0b0000, P)
    with pytest.raises(ConsistencyError, match="outside the weight"):
        broken.block(E2, broken.weight_of_monomial(f2v))


@pytest.mark.parametrize(
    "p,alpha,lam,chi",
    [(5, 2, (2, 3, 3), (0, 0, 0)), (5, 3, (1, 4, 2), (1, 1, 1))],
)
def test_module_axioms_spot(p, alpha, lam, chi):
    assert verify_module_axioms(p, alpha, lam, chi) == []


def test_representation_defects_flag_a_corrupted_action(module):
    alg, mats = module.algebra, module.matrices()
    assert representation_defects(alg, mats, module.chi) == []
    # checked against chi(f1) = 1, the chi = 0 action fails only f1^p = chi(f1)^p
    assert [gens for gens, _ in representation_defects(alg, mats, (1, 0, 0))] == [
        (F1,)
    ]
    scaled = list(mats)
    scaled[E1] = 2 * mats[E1]
    flagged = [gens for gens, _ in representation_defects(alg, scaled, module.chi)]
    assert (E1, F1) in flagged and (F1, E1) in flagged  # [e1, f1] = h1
    # only the identities that see e1 (as an argument or in the bracket) fail
    for gens in flagged:
        assert len(gens) == 2
        a, b = gens
        assert E1 in gens or E1 in dict(alg.bracket_items[a][b])
    # [x1, x1] = 0, so the pair (x1, x1) sees 2 rho(x1)^2 = 2 rho([x1, y4]) != 0
    odd = list(mats)
    odd[X1] = mats[X1] + mats[Y4]
    flagged = [gens for gens, _ in representation_defects(alg, odd, module.chi)]
    assert (X1, X1) in flagged
    # rows rolled by 16 raise i3: e2 now lands off its target weight
    shifted = list(mats)
    shifted[E2] = mats[E2][np.roll(np.arange(module.dim), 16)]
    flagged = [gens for gens, _ in representation_defects(alg, shifted, module.chi)]
    assert (H3, E2) in flagged and (E2, H3) in flagged


def test_restrictedness_f_power_matrix(module_chi):
    mat = module_chi.action_matrix(F1)
    power = mat
    for _ in range(P - 1):
        power = power @ mat
        power.data %= P
    power.eliminate_zeros()
    eye = np.eye(module_chi.dim, dtype=np.int64)
    assert (np.asarray(power.todense()) == eye).all()  # chi(f1)^p = 1


def test_weight_of_monomial_examples(module):
    assert module.weight_of_monomial(0) == LAM
    f2v = encode(0, 1, 0, 0b0000, P)
    assert module.weight_of_monomial(f2v) == (LAM[0], (LAM[1] - 2) % P, LAM[2])
    full_y = encode(0, 0, 0, 0b1111, P)
    assert module.weight_of_monomial(full_y) == (3, 3, 3)


def test_every_weight_space_has_dimension_16(module):
    decomposition = module.weight_decomposition()
    assert len(decomposition) == P**3
    assert all(len(v) == 16 for v in decomposition.values())
    # and the closed-form basis hits exactly those monomials
    for beta, members in list(decomposition.items())[:20]:
        assert sorted(module.weight_basis(beta)) == members


def test_target_weight_basis_examples(module):
    basis = module.weight_basis((0, 0, 0))
    assert [decode(n, P)[3] for n in basis] == list(range(16))
    assert decode(basis[15], P)[:3] == (4, 4, 4)  # all f-exponents at p-1
    top = module.weight_basis(LAM)
    assert decode(top[0], P)[:3] == (0, 0, 0)  # the highest weight vector


def test_target_weight_basis_monomials_have_claimed_weight(module):
    rng = random.Random(12)
    betas = [tuple(rng.randrange(P) for _ in range(3)) for _ in range(10)]
    for t in ((2, 0, 0), (0, 3, 0), (1, 1, 4), (4, 4, 4)):
        betas.append(t)
    for beta in betas:
        basis = module.weight_basis(beta)
        assert len(set(basis)) == 16
        for code, n in enumerate(basis):
            assert decode(n, P)[3] == code
            assert module.weight_of_monomial(n) == beta


def test_lambda_canonicalized():
    alg = build_algebra(5, 2)
    m = VermaModule(alg, (7, -2, 12), (0, 0, 0))
    assert m.lam == (2, 3, 2)


def test_e1_blocks_are_exact_at_a_large_prime():
    """e1 = [x1, x4] / (2(1+alpha)): the commutator is reduced before scaling."""
    p, alpha = 10_000_019, 2
    alg = build_algebra(p, alpha)
    module = VermaModule(alg, (2, -2, -2), (0, 0, 0))
    a, b = DERIVED_GENS[E1]
    scale = pow(2 * (1 + alpha), p - 2, p)

    def exact(g, beta):
        return module.block(g, beta).astype(object)

    for u in range(17):
        beta = alg.weights[u]
        commutator = (
            exact(a, module._shifted(beta, b)) @ exact(b, beta)
            + exact(b, module._shifted(beta, a)) @ exact(a, beta)
        )
        expected = commutator % p * scale % p
        assert (exact(E1, beta) == expected).all(), u
    assert h1(module).sdim == (6, 0)
