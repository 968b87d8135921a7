"""Shared test helpers that the engine itself does not need."""
from d21alpha.algebra import F1, F2, F3, GENERATOR_INDEX, PARITY, Y1, SuperAlgebra
from d21alpha.cohomology import _PAIRS, _UNIT, GradedLayout
from d21alpha.enveloping import decode, theta_tuple


def word(names=(), monomial: int | None = None, p: int | None = None) -> list[int]:
    """Generator indices for normal_form: the named generators, in order, then
    the letters f1^i1 f2^i2 f3^i3 y^theta of the basis monomial with index
    monomial at p, if one is given.
    """
    out = [GENERATOR_INDEX[name] for name in names]
    if monomial is not None:
        i1, i2, i3, code = decode(monomial, p)
        out += [F1] * i1 + [F2] * i2 + [F3] * i3
        out += [Y1 + k for k, jk in enumerate(theta_tuple(code)) if jk]
    return out


def whole_identity(module, parity: int):
    """The derivation identity of all 153 pairs as one (153, 8, 136) operator.

    The one builder in the 136 unit coordinates: its kernel is the 0-weight
    derivation space, with no generating set or chain map involved.
    """
    return GradedLayout(module, parity)._operator(_PAIRS, _UNIT)


def with_perturbed_bracket(
    algebra: SuperAlgebra, a, b, g, delta: int
) -> SuperAlgebra:
    """A copy of algebra with [a,b] perturbed by delta*g (antisymmetry-closed).

    Generators are given by index or name.  A perturbed table must trip
    check_axioms, and a module built on it must trip the module checks.
    """
    a, b, g = (GENERATOR_INDEX.get(x, x) for x in (a, b, g))
    p = algebra.p
    clone = SuperAlgebra(p, algebra.alpha)
    rows = [[dict(cell) for cell in row] for row in clone.bracket_items]
    entry = rows[a][b]
    entry[g] = (entry.get(g, 0) + delta) % p
    entry = {k: v for k, v in entry.items() if v}
    sign = 1 if PARITY[a] and PARITY[b] else -1
    rows[a][b] = entry
    rows[b][a] = {k: sign * v % p for k, v in entry.items()}
    clone.bracket_items = tuple(
        tuple(tuple(sorted(rows[i][j].items())) for j in range(17))
        for i in range(17)
    )
    return clone
