"""Shared test helpers that the engine itself does not need."""
from d21alpha.algebra import GENERATOR_INDEX, PARITY, SuperAlgebra


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
