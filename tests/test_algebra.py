import random

import numpy as np
import pytest

from d21alpha.algebra import (
    EVEN_GENERATORS, GENERATOR_INDEX, GENERATOR_NAMES, ODD_GENERATORS, PARITY,
    build_algebra, generator_weight,
)

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
    assert len(EVEN_GENERATORS) == 9
    assert len(ODD_GENERATORS) == 8
    assert all(PARITY[i] == 0 for i in EVEN_GENERATORS)
    assert all(PARITY[i] == 1 for i in ODD_GENERATORS)


def test_weights_match_tensor_sign_patterns(alg):
    assert alg.weight_of("f2") == (0, 3, 0)  # -2 mod 5
    assert alg.weight_of("x2") == (1, 1, 4)
    assert alg.weight_of("h1") == (0, 0, 0)
    assert alg.weight_of("y4") == (4, 4, 4)
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


def test_bracket_examples(alg):
    assert alg.bracket_gen(GENERATOR_INDEX["e1"], GENERATOR_INDEX["f1"]) == alg.generator("h1")
    # -(1+alpha)h1 + h2 + alpha*h3 at alpha=2 mod 5
    assert alg.bracket_gen(GENERATOR_INDEX["x1"], GENERATOR_INDEX["y4"]) == alg.element(
        {"h1": 2, "h2": 1, "h3": 2}
    )
    assert alg.bracket_gen(GENERATOR_INDEX["f1"], GENERATOR_INDEX["f2"]).is_zero()
    assert alg.bracket(alg.generator("h1"), alg.generator("x3")) == alg.generator("x3")
    # 2(1+alpha) = 6 = 1 mod 5
    assert alg.bracket(alg.generator("y2"), alg.generator("y3")) == alg.element({"f1": 1})


def test_bracket_of_even_element_with_itself_vanishes(alg):
    rng = random.Random(11)
    for _ in range(20):
        a = alg.element({g: rng.randrange(5) for g in EVEN_GENERATORS})
        assert alg.bracket(a, a).is_zero()


def test_bracket_bilinearity(alg):
    rng = random.Random(7)
    for _ in range(10):
        x = alg.element({g: rng.randrange(5) for g in range(17)})
        y = alg.element({g: rng.randrange(5) for g in range(17)})
        z = alg.element({g: rng.randrange(5) for g in range(17)})
        assert alg.bracket(x + y, z) == alg.bracket(x, z) + alg.bracket(y, z)
        assert alg.bracket(z, x + y) == alg.bracket(z, x) + alg.bracket(z, y)
        c = rng.randrange(5)
        assert alg.bracket(x.scale(c), y) == alg.bracket(x, y).scale(c)


def test_pmap(alg):
    assert alg.pmap("h2") == alg.generator("h2")
    assert alg.pmap("f3").is_zero()
    assert alg.pmap("e1").is_zero()
    with pytest.raises(ValueError):
        alg.pmap("x1")


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


def test_check_axioms_flags_perturbed_table(alg):
    broken = alg.with_perturbed_bracket("x1", "y4", "h1", 1)
    violations = broken.check_axioms()
    assert violations
    jacobi = [v for v in violations if v.kind == "jacobi"]
    assert jacobi, "a perturbed coefficient must break the Jacobi identity"
    assert all(len(v.generators) == 3 for v in jacobi)


def test_restrictedness_ad_matrices(alg):
    p = alg.p
    for name in ("h1", "h2", "h3"):
        ad = alg.ad_matrix(GENERATOR_INDEX[name])
        power = np.eye(17, dtype=np.int64)
        for _ in range(p):
            power = power @ ad % p
        assert (power == ad).all()
    for name in ("e1", "e2", "e3", "f1", "f2", "f3"):
        ad = alg.ad_matrix(GENERATOR_INDEX[name])
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
