"""Shared test helpers that the engine itself does not need."""
import itertools

import numpy as np
import scipy.sparse as sp

from d21alpha.algebra import (
    F1, F2, F3, GENERATING_CHAIN, GENERATING_SET, GENERATOR_INDEX, PARITY, Y1,
    SuperAlgebra,
)
from d21alpha.cohomology import _PAIRS, GradedLayout
from d21alpha.enveloping import decode, theta_tuple

# phi(g)'s coordinates in the 136 graded coordinates themselves
UNIT = np.eye(17 * 8, dtype=np.int64).reshape(17, 8, 17 * 8)


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


def block(module, g: int, beta):
    """The 16x16 block of generator g from the weight space beta: entry (r, c)
    is the coefficient of w_index(beta + wt g, r) in g * w_index(beta, c)."""
    return module.column((g,), (tuple(beta),))[0, 0]


def shifted(module, beta, g: int) -> tuple[int, int, int]:
    """The weight beta + wt(g), as canonical residues."""
    p, w = module.p, module.algebra.weights[g]
    return (beta[0] + w[0]) % p, (beta[1] + w[1]) % p, (beta[2] + w[2]) % p


def whole_identity(module, parity: int):
    """The derivation identity of all 153 pairs as one (153, 8, 136) operator.

    The one builder in the 136 unit coordinates: its kernel is the 0-weight
    derivation space, with no generating set or chain map involved.
    """
    return GradedLayout(module, parity)._operator(_PAIRS, UNIT)


def chain_from_whole_identity(module, parity: int):
    """The chain map T (17, 8, 32), each step solved from the whole identity.

    Step (g, a, b) of GENERATING_CHAIN reads the row of the unordered pair
    {a, b} in the 136 unit coordinates, c phi(g) + A phi(a) + B phi(b) = 0
    with [a, b] = c g in that pair's order, and sets
    T[g] = -(A T[a] + B T[b]) / c.
    """
    p = module.p
    T = np.zeros((17, 8, 8 * len(GENERATING_SET)), dtype=np.int64)
    for k, s in enumerate(GENERATING_SET):
        T[s, :, 8 * k:8 * k + 8] = np.eye(8, dtype=np.int64)
    rows = whole_identity(module, parity).reshape(len(_PAIRS), 8, 17, 8)
    brackets = module.algebra.bracket_items
    for g, a, b in GENERATING_CHAIN:
        a, b = sorted((a, b))
        L = rows[_PAIRS.index((a, b))]
        inverse = pow(dict(brackets[a][b])[g], p - 2, p)
        T[g] = -(L[:, a] @ T[a] + L[:, b] @ T[b]) % p * inverse % p
    return T


def action_matrix_from_weight_bases(module, g: int):
    """The sparse action matrix of g, its indices read weight by weight from
    weight_basis: the construction the vectorized encode replaced."""
    p = module.p
    betas = tuple(itertools.product(range(p), repeat=3))
    blocks = module.column((g,), betas)[0]
    sources = np.array([module.weight_basis(beta) for beta in betas])
    targets = np.array([module.weight_basis(shifted(module, b, g)) for b in betas])
    k, r, c = np.nonzero(blocks)
    return sp.csr_matrix(
        (blocks[k, r, c], (targets[k, r], sources[k, c])),
        shape=(module.dim, module.dim),
        dtype=np.int64,
    )


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
