import random

import numpy as np
import pytest

from d21alpha import linalg
from d21alpha.algebra import (
    E1, F1, F2, F3, GENERATING_CHAIN, GENERATING_SET, GENERATOR_INDEX,
    GENERATOR_NAMES, H1, PARITY, X1, X3, Y2, Y3, Y4, build_algebra,
    generator_weight,
)
from helpers import with_perturbed_bracket

# Hand transcription of every nonzero generator bracket, independent of the
# build code.  Coefficients are (c0, c1) meaning c0 + c1*alpha.
SL2_BRACKETS = []
for i in "123":
    SL2_BRACKETS += [
        (f"e{i}", f"f{i}", {f"h{i}": (1, 0)}),
        (f"h{i}", f"e{i}", {f"e{i}": (2, 0)}),
        (f"h{i}", f"f{i}", {f"f{i}": (-2, 0)}),
    ]

EVEN_ODD_BRACKETS = []
for i in "1234":
    EVEN_ODD_BRACKETS += [
        ("h1", f"x{i}", {f"x{i}": (1, 0)}),
        ("h1", f"y{i}", {f"y{i}": (-1, 0)}),
        ("e1", f"y{i}", {f"x{i}": (1, 0)}),
        ("f1", f"x{i}", {f"y{i}": (1, 0)}),
    ]
for k in "xy":
    EVEN_ODD_BRACKETS += [
        ("h2", f"{k}1", {f"{k}1": (1, 0)}),
        ("h2", f"{k}2", {f"{k}2": (1, 0)}),
        ("h2", f"{k}3", {f"{k}3": (-1, 0)}),
        ("h2", f"{k}4", {f"{k}4": (-1, 0)}),
        ("e2", f"{k}3", {f"{k}1": (1, 0)}),
        ("e2", f"{k}4", {f"{k}2": (1, 0)}),
        ("f2", f"{k}1", {f"{k}3": (1, 0)}),
        ("f2", f"{k}2", {f"{k}4": (1, 0)}),
        ("h3", f"{k}1", {f"{k}1": (1, 0)}),
        ("h3", f"{k}2", {f"{k}2": (-1, 0)}),
        ("h3", f"{k}3", {f"{k}3": (1, 0)}),
        ("h3", f"{k}4", {f"{k}4": (-1, 0)}),
        ("e3", f"{k}2", {f"{k}1": (1, 0)}),
        ("e3", f"{k}4", {f"{k}3": (1, 0)}),
        ("f3", f"{k}1", {f"{k}2": (1, 0)}),
        ("f3", f"{k}3", {f"{k}4": (1, 0)}),
    ]

ODD_ODD_BRACKETS = [
    ("x1", "y2", {"e2": (-2, 0)}),
    ("x1", "y3", {"e3": (0, -2)}),
    ("x1", "y4", {"h1": (-1, -1), "h2": (1, 0), "h3": (0, 1)}),
    ("x2", "y1", {"e2": (2, 0)}),
    ("x2", "y4", {"f3": (0, 2)}),
    ("x2", "y3", {"h1": (1, 1), "h2": (-1, 0), "h3": (0, 1)}),
    ("x3", "y1", {"e3": (0, 2)}),
    ("x3", "y4", {"f2": (2, 0)}),
    ("x3", "y2", {"h1": (1, 1), "h2": (1, 0), "h3": (0, -1)}),
    ("x4", "y2", {"f3": (0, -2)}),
    ("x4", "y3", {"f2": (-2, 0)}),
    ("x4", "y1", {"h1": (-1, -1), "h2": (-1, 0), "h3": (0, -1)}),
    ("y2", "y3", {"f1": (2, 2)}),
    ("y1", "y4", {"f1": (-2, -2)}),
    ("x2", "x3", {"e1": (-2, -2)}),
    ("x1", "x4", {"e1": (2, 2)}),
]

HAND_TABLE = SL2_BRACKETS + EVEN_ODD_BRACKETS + ODD_ODD_BRACKETS


def expected_bracket_tensor(p, alpha):
    """Expand the hand table at concrete (p, alpha), closed by antisymmetry."""
    table = {}
    for a_name, b_name, val in HAND_TABLE:
        a, b = GENERATOR_INDEX[a_name], GENERATOR_INDEX[b_name]
        entry = {
            GENERATOR_INDEX[g]: (c0 + c1 * alpha) % p
            for g, (c0, c1) in val.items()
            if (c0 + c1 * alpha) % p
        }
        table[(a, b)] = entry
        sign = 1 if PARITY[a] and PARITY[b] else -1
        table[(b, a)] = {g: sign * c % p for g, c in entry.items()}
    return table


@pytest.fixture(scope="module")
def alg():
    return build_algebra(5, 2)


def test_generator_enumeration():
    assert len(GENERATOR_NAMES) == len(PARITY) == 17
    assert [GENERATOR_INDEX[name] for name in GENERATOR_NAMES] == list(range(17))
    # h, e, f are even; the x's and y's are odd
    assert PARITY == tuple(int(name[0] in "xy") for name in GENERATOR_NAMES)
    assert sum(PARITY) == 8


def test_weights_match_tensor_sign_patterns(alg):
    weight = {name: alg.weights[g] for g, name in enumerate(GENERATOR_NAMES)}
    assert weight["f2"] == (0, 3, 0)  # -2 mod 5
    assert weight["x2"] == (1, 1, 4)
    assert weight["h1"] == (0, 0, 0)
    assert weight["y4"] == (4, 4, 4)
    # independent recomputation of every weight from tensor slot signs
    for i in range(4):
        signs = (1, 1 if i in (0, 1) else -1, 1 if i in (0, 2) else -1)
        assert generator_weight(GENERATOR_INDEX[f"x{i+1}"]) == signs
        assert generator_weight(GENERATOR_INDEX[f"y{i+1}"]) == (-signs[0],) + signs[1:]


@pytest.mark.parametrize("p,alpha", [(5, 1), (5, 2), (5, 3), (7, 3), (7, 5)])
def test_bracket_tensor_matches_hand_transcription(p, alpha):
    algebra = build_algebra(p, alpha)
    expected = expected_bracket_tensor(p, alpha)
    for a in range(17):
        for b in range(17):
            assert dict(algebra.bracket_items[a][b]) == expected.get((a, b), {}), (
                GENERATOR_NAMES[a], GENERATOR_NAMES[b],
            )
            tensor = {g: int(c) for g, c in enumerate(algebra.ad[a, :, b]) if c}
            assert tensor == expected.get((a, b), {})


def test_ad_is_built_from_the_table_it_finds(alg):
    """A copy whose table is replaced after construction gets its own tensor."""
    broken = with_perturbed_bracket(alg, "x1", "y4", "h1", 1)
    assert not alg.ad.flags.writeable and not broken.ad.flags.writeable
    changed = np.argwhere(broken.ad != alg.ad).tolist()
    assert changed == [[X1, H1, Y4], [Y4, H1, X1]]
    assert broken.ad[X1, H1, Y4] == (alg.ad[X1, H1, Y4] + 1) % alg.p


def test_bracket_examples(alg):
    def bracket(a, b):
        return {GENERATOR_NAMES[g]: c for g, c in alg.bracket_items[a][b]}

    assert bracket(E1, F1) == {"h1": 1}
    # -(1+alpha)h1 + h2 + alpha*h3 at alpha=2 mod 5
    assert bracket(X1, Y4) == {"h1": 2, "h2": 1, "h3": 2}
    assert bracket(F1, F2) == {}
    assert bracket(H1, X3) == {"x3": 1}
    # 2(1+alpha) = 6 = 1 mod 5
    assert bracket(Y2, Y3) == {"f1": 1}


def test_bracket_of_even_element_with_itself_vanishes(alg):
    rng = random.Random(11)
    for _ in range(20):
        coeffs = np.array([rng.randrange(5) for _ in range(F3 + 1)])
        ad_x = np.einsum("a,agb->gb", coeffs, alg.ad[:F3 + 1])
        # [x, x] = ad(x) x, with x padded by zeros on the odd generators
        assert not (ad_x @ np.concatenate([coeffs, np.zeros(8, int)]) % 5).any()


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_algebra(5, 0)
    with pytest.raises(ValueError):
        build_algebra(5, 4)  # -1 mod 5
    with pytest.raises(ValueError):
        build_algebra(4, 2)
    with pytest.raises(ValueError):
        build_algebra(3, 1)


@pytest.mark.parametrize("p,alpha", [(5, 2), (5, 3), (7, 3)])
def test_check_axioms_empty_on_correct_tables(p, alpha):
    assert build_algebra(p, alpha).check_axioms() == []


def cyclic_jacobi_triples(algebra):
    """Slow oracle: the (a, b, c) with a nonzero cyclic super-Jacobi sum

        (-1)^{|a||c|} [a,[b,c]] + (-1)^{|b||a|} [b,[c,a]] + (-1)^{|c||b|} [c,[a,b]],

    computed from the bracket table alone, one triple at a time.
    """
    p, table = algebra.p, algebra.bracket_items

    def nested(x, y, z):  # [x,[y,z]] as a dict
        out = {}
        for g, c in table[y][z]:
            for h, d in table[x][g]:
                out[h] = (out.get(h, 0) + c * d) % p
        return out

    triples = []
    for a in range(17):
        for b in range(17):
            for c in range(17):
                total = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    sign = -1 if PARITY[x] and PARITY[z] else 1
                    for g, v in nested(x, y, z).items():
                        total[g] = (total.get(g, 0) + sign * v) % p
                if any(total.values()):
                    triples.append(tuple(GENERATOR_NAMES[g] for g in (a, b, c)))
    return triples


def weight_pairs(algebra):
    """The ordered pairs whose bracket leaves the sum of their weights."""
    p, w = algebra.p, algebra.weights
    return [
        (GENERATOR_NAMES[a], GENERATOR_NAMES[b])
        for a in range(17)
        for b in range(17)
        for g, _ in algebra.bracket_items[a][b]
        if w[g] != tuple((w[a][i] + w[b][i]) % p for i in range(3))
    ]


@pytest.mark.parametrize("p,alpha", [(5, 2), (7, 3)])
@pytest.mark.parametrize(
    "perturbation,jacobi_count",
    [
        (("x1", "y4", "h1", 1), 90),
        (("e2", "f2", "f1", 1), 60),
        (("x2", "y3", "h3", 2), 90),
    ],
    ids=["x1-y4-h1-1", "e2-f2-f1-1", "x2-y3-h3-2"],
)
def test_check_axioms_flags_perturbed_table(p, alpha, perturbation, jacobi_count):
    broken = with_perturbed_bracket(build_algebra(p, alpha), *perturbation)
    found = [(v.kind, v.generators) for v in broken.check_axioms()]
    jacobi = cyclic_jacobi_triples(broken)
    assert len(jacobi) == jacobi_count
    # the matrix sweep reports exactly what the slow per-triple sweep finds,
    # after the weight violations of the pair loop, in the same order
    assert found == [("weight", pair) for pair in weight_pairs(broken)] + [
        ("jacobi", triple) for triple in jacobi
    ]


def test_restrictedness_ad_matrices(alg):
    p = alg.p
    for name in ("h1", "h2", "h3"):
        ad = alg.ad[GENERATOR_INDEX[name]]
        power = np.eye(17, dtype=np.int64)
        for _ in range(p):
            power = power @ ad % p
        assert (power == ad).all()
    for name in ("e1", "e2", "e3", "f1", "f2", "f3"):
        ad = alg.ad[GENERATOR_INDEX[name]]
        power = np.eye(17, dtype=np.int64)
        for _ in range(p):
            power = power @ ad % p
        assert not power.any()


def test_weight_compatibility(alg):
    p = alg.p
    for a in range(17):
        for b in range(17):
            ws = tuple((alg.weights[a][i] + alg.weights[b][i]) % p for i in range(3))
            for g, _ in alg.bracket_items[a][b]:
                assert alg.weights[g] == ws


def test_bracket_json_dump(alg):
    dump = alg.bracket_table_json()
    assert dump["p"] == 5 and dump["alpha"] == 2
    entry = next(x for x in dump["pairs"] if x["a"] == "x1" and x["b"] == "y4")
    assert entry["value"] == {"h1": 2, "h2": 1, "h3": 2}


def _generated_dimension(alg, gens) -> int:
    """Dimension of the subalgebra that the generators gens span under brackets."""
    p = alg.p
    V = np.eye(17, dtype=np.int64)[list(gens)]
    while True:
        # [u, v]_g = sum_a u_a (ad(a) v)_g, reduced after each sum of products
        ad_v = np.einsum("agb,jb->jag", alg.ad, V) % p
        brackets = np.einsum("ia,jag->ijg", V, ad_v) % p
        grown = linalg.rref(np.vstack([V, brackets.reshape(-1, 17)]), p)[0]
        if len(grown) == len(V):
            return len(V)
        V = grown


@pytest.mark.parametrize("p,alphas", [
    (5, range(1, 4)), (7, range(1, 6)), (11, range(1, 10)), (13, range(1, 12)),
    (101, random.Random(101).sample(range(1, 100), 6)),
    (10_000_019, random.Random(7).sample(range(1, 10_000_018), 6)),
])
def test_generating_set_spans_the_algebra(p, alphas):
    for alpha in alphas:
        alg = build_algebra(p, alpha)
        assert _generated_dimension(alg, GENERATING_SET) == 17, alpha
        # and no three of them do
        for k in range(4):
            rest = GENERATING_SET[:k] + GENERATING_SET[k + 1:]
            assert _generated_dimension(alg, rest) < 17, (alpha, rest)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_generating_chain_reaches_every_generator_once(p):
    """Each chain step is one bracket of known generators onto a unit multiple."""
    reached = list(GENERATING_SET) + [g for g, _, _ in GENERATING_CHAIN]
    assert sorted(reached) == list(range(17))
    for alpha in range(1, p - 1):
        alg = build_algebra(p, alpha)
        known = set(GENERATING_SET)
        for g, a, b in GENERATING_CHAIN:
            assert a in known and b in known, (alpha, GENERATOR_NAMES[g])
            (term,) = alg.bracket_items[a][b]
            assert term[0] == g and term[1] % p, (alpha, GENERATOR_NAMES[g])
            known.add(g)
