"""Baby Verma modules of D(2,1;alpha) via PBW straightening.

For a character chi vanishing on the Cartan part and on the positive even
root vectors (only the values chi(f_1), chi(f_2), chi(f_3) remain), the baby
Verma module with highest weight lambda has the 16*p^3 monomial basis

    f1^i1 f2^i2 f3^i3 y1^j1 y2^j2 y3^j3 y4^j4 (x) v,
    0 <= i_k < p,  j_k in {0, 1},

linearly indexed as ((i1*p + i2)*p + i3)*16 + (j1*8 + j2*4 + j3*2 + j4).
The highest weight vector v is even, so a basis monomial has parity
j1+j2+j3+j4 mod 2.

Arbitrary products of generators applied to v are reduced to this basis by a
confluent rewriting system (``normal_form``): adjacent out-of-order pairs a*b
are replaced by (-1)^{|a||b|} b*a + [a,b], squares of odd generators vanish,
f_i^p reduces to the scalar chi(f_i)^p, and at the right boundary e_i and x_i
kill v while h_i contributes lambda_i.

The action does not run that system per column.  Since f_k is even,
x f_k = f_k x + [x, f_k], so x f_k^i = sum_j C(i, j) f_k^(i-j) D_k^j(x) with
D_k = [-, f_k] (Humphreys, "Introduction to Lie Algebras", 7.2), and
ad f_k^3 = 0 on D(2,1;alpha).  Crossing f1^i1, f2^i2 and f3^i3 in turn,

    g f1^i1 f2^i2 f3^i3 y^theta v
        = sum_j prod_k C(i_k, j_k) f1^(i1-j1) f2^(i2-j2) f3^(i3-j3)
                D_2^j3 D_1^j2 D_0^j1(g) y^theta v,       j in {0, 1, 2}^3.

Each generator g' of D_2^j3 D_1^j2 D_0^j1(g) leaves a tail g' y^theta v of
at most five letters, whose normal form is a sum of f1^a1 f2^a2 f3^a3
y^theta' v.  The f's commute, so a tail term lands on f^(i-j+a) y^theta' v.
A tail holds at most one f (g' itself, or the bracket of two of its y's), so
a_k <= 1 < p (the build checks it): the tails never meet chi, and
i_k - j_k + a_k reaches p at most once, where f_k^p acts as chi(f_k)^p = chi_k.
As i_k < p, that happens only where j_k = 0, a_k = 1 and i_k = p - 1.

A tail is affine in lambda: c0 + lambda_1 c1 + lambda_2 c2 + lambda_3 c3
(mod p).  Lambda enters only where an h_k reaches v.  In the reduction of
g' y^theta v every letter but one is a negative root vector (a y or an f):
the bracket of two negative root vectors is one or 0, and a bracket with
the one other letter (g', or the letter that replaced it) replaces that
letter.  So a word holds at most one h, and each term picks up at most one
lambda_k; the normal forms at lambda = 0, e1, e2, e3 give c0 and c.

So the column is a sum over the rows (theta, j, a, theta', c0, c) of a table
that depends on the algebra alone (``crossing_table``), each row adding

    prod_k C(i_k, j_k) * (c0 + lambda . c) * prod_k chi_k^[i_k - j_k + a_k >= p]

to theta code theta' of the target weight space.  Every weight space holds
exactly one monomial per theta code, so a generator acts as one 16x16 block
per weight, and a block is one scatter-add of the rows of g.  The exponent
i_k of a row's source monomial depends only on the weight space and theta, so
there its factor of f_k is one of four values: C(i_k, j_k) for j_k = 0, 1, 2,
or chi_k^[i_k = p - 1] where j_k = 0 and a_k = 1.  ``VermaModule.column``
tabulates those per weight and theta, and evaluates the rows of a tuple of
generators on a tuple of weights in one pass; ``generator_blocks``, the
17 x 17 blocks the derivation identity reads, is one such call.  The build
checks that each row keeps the weight and parity grading, so no evaluation
has to.
tests/test_enveloping.py compares the blocks with ``normal_form`` of whole
words g f1^i1 f2^i2 f3^i3 y^theta.

Arithmetic is int64 and exact.  The build multiplies 17x17 matrices of
residues and sums one row's terms over the generators g', reducing each
sum of at most 17 products below p^2: exact while 17 (p-1)^2 < 2^63.
Evaluation reduces every product, and an affine value sums 4 products below
p^2, so it is exact while 4 (p-1)^2 < 2^63; the int32 table holds residues,
so p < 2^31.  Both bounds lie beyond the 136 (p-1)^2 < 2^63 of
``linalg.reduce``, the tightest on the graded path.
"""
from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

from .algebra import (
    E1, E2, E3, F1, F2, F3, H1, H2, H3, X1, X2, X3, X4, Y1, Y2, Y3, Y4,
    GENERATOR_NAMES, PARITY, SuperAlgebra, build_algebra, representation_defects,
)

# Straightening order: the PBW segment first, then the generators eliminated
# at the v boundary.  SORT_KEY[g] is the target position class of generator g.
_ORDER = (F1, F2, F3, Y1, Y2, Y3, Y4, H1, H2, H3, E1, E2, E3, X1, X2, X3, X4)
SORT_KEY = tuple(_ORDER.index(g) for g in range(17))

# Rewrite steps one straightening may take before it is declared divergent.
MAX_REWRITE_STEPS = 50_000_000


class ConsistencyError(RuntimeError):
    """An internal mathematical invariant failed (build bug, not user error)."""


# -- the monomial codec --------------------------------------------------------
# The only code that knows the index layout.  Each function takes a Python int
# or an int64 numpy array and applies the same expressions to either.

THETA_BITS = (8, 4, 2, 1)  # bit of y1..y4 inside a theta code


def theta_tuple(code):
    """The y-exponents (j1, j2, j3, j4) of a theta code."""
    return (code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1


def encode(i1, i2, i3, code, p: int):
    """Index of the basis monomial f1^i1 f2^i2 f3^i3 y^theta (x) v."""
    return ((i1 * p + i2) * p + i3) * 16 + code


def decode(n, p: int):
    """(i1, i2, i3, theta code) of the basis monomial with index n."""
    m = n >> 4
    return m // (p * p), m // p % p, m % p, n & 15


def theta_weight(code):
    """Weight of y1^j1 y2^j2 y3^j3 y4^j4, as an integer triple."""
    j1, j2, j3, j4 = theta_tuple(code)
    return -j1 - j2 - j3 - j4, j1 + j2 - j3 - j4, j1 - j2 + j3 - j4


def monomial_weight(n, lam, p: int):
    """Weight lambda - 2*(i1, i2, i3) + wt(y^theta) of index n, mod p."""
    i1, i2, i3, code = decode(n, p)
    t1, t2, t3 = theta_weight(code)
    return (
        (lam[0] - 2 * i1 + t1) % p,
        (lam[1] - 2 * i2 + t2) % p,
        (lam[2] - 2 * i3 + t3) % p,
    )


def monomial_parity(n):
    """Parity j1+j2+j3+j4 mod 2 of an index (or of a bare theta code)."""
    j1, j2, j3, j4 = theta_tuple(n & 15)
    return (j1 + j2 + j3 + j4) % 2


J1_CODES = tuple(c for c in range(16) if monomial_parity(c) == 0)
J3_CODES = tuple(c for c in range(16) if monomial_parity(c) == 1)
# per theta code: the y-weight (also as an array) and the y-word
THETA_WEIGHTS = tuple(theta_weight(c) for c in range(16))
_THETA_WEIGHTS = np.array(THETA_WEIGHTS, dtype=np.int64)
Y_WORDS = tuple(
    tuple(Y1 + k for k, jk in enumerate(theta_tuple(c)) if jk) for c in range(16)
)


class VermaModule:
    """A baby Verma module with lazily materialized generator actions.

    The module is determined by (algebra, lambda, chi).  The action of a
    generator on one weight space is a 16x16 block, evaluated from the
    algebra's crossing table.  The module caches the 17x17 blocks that the
    derivation identity reads, and full sparse matrices, which are assembled
    only when requested, so weight-graded computations stay cheap.
    """

    def __init__(self, algebra: SuperAlgebra, lam, chi):
        p = algebra.p
        self.algebra = algebra
        self.p = p
        self.lam = tuple(v % p for v in lam)
        self.chi = tuple(c % p for c in chi)
        self.dim = 16 * p**3
        self.inv2 = pow(2, p - 2, p)
        self._matrices: dict = {}  # generator -> scipy CSR matrix

    # -- monomial bookkeeping ------------------------------------------------

    def weight_of_monomial(self, n: int) -> tuple[int, int, int]:
        """Weight of the basis monomial with index n, as canonical residues."""
        return monomial_weight(n, self.lam, self.p)

    def w_index(self, beta, code: int) -> int:
        """Index of the weight-beta basis monomial with y-pattern ``code``.

        Solves monomial_weight(n) == beta for the f-exponents.
        """
        p, lam, inv2 = self.p, self.lam, self.inv2
        t1, t2, t3 = THETA_WEIGHTS[code]
        return encode(
            (lam[0] + t1 - beta[0]) * inv2 % p,
            (lam[1] + t2 - beta[1]) * inv2 % p,
            (lam[2] + t3 - beta[2]) * inv2 % p,
            code,
            p,
        )

    def weight_basis(self, beta) -> tuple[int, ...]:
        """Indices of the 16 monomials of weight beta, by theta code."""
        return tuple(self.w_index(beta, code) for code in range(16))

    def _exponents(self, betas) -> np.ndarray:
        """The f-exponents (i1, i2, i3) of the monomial of each theta code in
        each weight space of betas, shape (len(betas), 16, 3): w_index's
        solve, on every weight at once."""
        p = self.p
        beta = np.array(betas, dtype=np.int64).reshape(-1, 1, 3) % p
        return (np.array(self.lam) + _THETA_WEIGHTS - beta) * self.inv2 % p

    def weight_decomposition(self) -> dict[tuple[int, int, int], list[int]]:
        """Monomial indices grouped by weight, in index order."""
        codes = self.weight_codes()
        order = np.argsort(codes, kind="stable")
        cuts = np.flatnonzero(np.diff(codes[order])) + 1
        return {
            self.weight_of_monomial(int(group[0])): group.tolist()
            for group in np.split(order, cuts)
        }

    # -- straightening engine --------------------------------------------------

    def normal_form(self, word, scalar: int = 1) -> dict[int, int]:
        """PBW normal form of scalar * word * v as {index: coefficient}.

        word lists generator indices.  Iterative worklist; each rewriting
        step either lowers the inversion count of a word or shortens it, so
        the loop terminates.  A broken bracket table can break that argument,
        so past MAX_REWRITE_STEPS steps the reduction raises ConsistencyError.
        """
        p = self.p
        lam, chi = self.lam, self.chi
        key = SORT_KEY
        par = PARITY
        brackets = self.algebra.bracket_items
        limit = MAX_REWRITE_STEPS
        out: dict[int, int] = {}
        stack = [(scalar % p, list(word), 0)]
        guard = 0
        while stack:
            c, w, k = stack.pop()
            if c == 0:
                continue
            nlen = len(w)
            dead = False
            while k < nlen - 1:
                guard += 1
                if guard >= limit:
                    raise ConsistencyError(
                        f"straightening exceeded {limit} rewrite steps"
                    )
                a = w[k]
                b = w[k + 1]
                if key[a] > key[b]:
                    for g, co in brackets[a][b]:
                        stack.append((c * co % p, w[:k] + [g] + w[k + 2:],
                                      k - 1 if k else 0))
                    if par[a] and par[b]:
                        c = p - c
                    w[k] = b
                    w[k + 1] = a
                    if k:
                        k -= 1
                    continue
                if a == b and par[a]:
                    dead = True  # odd square: 2*a*a = [a,a] = 0
                    break
                k += 1
            if dead:
                continue
            i1 = i2 = i3 = 0
            code = 0
            for g in w:
                if g == F1:
                    i1 += 1
                elif g == F2:
                    i2 += 1
                elif g == F3:
                    i3 += 1
                elif g >= Y1:
                    code |= THETA_BITS[g - Y1]
                elif g <= H3:
                    c = c * lam[g] % p
                else:
                    dead = True  # e_i or x_i reached v
                    break
            if dead or c == 0:
                continue
            # f_i^p is the scalar chi(f_i)^p = chi(f_i)
            while i1 >= p:
                i1 -= p
                c = c * chi[0] % p
            while i2 >= p:
                i2 -= p
                c = c * chi[1] % p
            while i3 >= p:
                i3 -= p
                c = c * chi[2] % p
            if not c:
                continue
            n = encode(i1, i2, i3, code, p)
            v = out.get(n, 0) + c
            if v % p:
                out[n] = v % p
            elif n in out:
                del out[n]
        return out

    def normal_form_randomized(self, word, rng, scalar: int = 1) -> dict[int, int]:
        """Confluence oracle: reduce with randomly chosen rewrite positions.

        word lists generator indices, as for ``normal_form``.
        """
        p = self.p
        par = PARITY
        key = SORT_KEY
        brackets = self.algebra.bracket_items
        out: dict[int, int] = {}
        stack = [(scalar % p, tuple(word))]
        while stack:
            c, w = stack.pop()
            if c == 0:
                continue
            spots = [
                k
                for k in range(len(w) - 1)
                if key[w[k]] > key[w[k + 1]] or (w[k] == w[k + 1] and par[w[k]])
            ]
            if spots:
                k = spots[rng.randrange(len(spots))]
                a, b = w[k], w[k + 1]
                if a == b:
                    continue
                sign = p - 1 if par[a] and par[b] else 1
                stack.append((c * sign % p, w[:k] + (b, a) + w[k + 2:]))
                for g, co in brackets[a][b]:
                    stack.append((c * co % p, w[:k] + (g,) + w[k + 2:]))
                continue
            for n, v in self.normal_form(w, c).items():
                t = (out.get(n, 0) + v) % p
                if t:
                    out[n] = t
                elif n in out:
                    del out[n]
        return out

    # -- generator action ----------------------------------------------------

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        return crossing_table(self.algebra)

    def column(self, gens, betas) -> np.ndarray:
        """The blocks of gens from the weight spaces betas, in one evaluation.

        gens is a tuple of generators and betas a tuple of weight triples.
        The result has shape (len(gens), len(betas), 16, 16): entry
        (s, k, r, c) is the coefficient of w_index(betas[k] + wt gens[s], r)
        in gens[s] * w_index(betas[k], c), an int64 residue.  The crossing
        table's rows of gens are gathered once and evaluated at this module's
        lambda and chi on every weight at once, each row's factors of f1, f2
        and f3 read from a table of the four values each can take (module
        docstring); one scatter-add writes cell (s * 16 + theta') * 16 + theta
        of each weight.  Every product is reduced.
        """
        p, lam = self.p, np.array(self.lam)
        rows, slot = _generator_rows(self._table, gens)
        theta, j, a = rows[:, 0], rows[:, 1:4], rows[:, 4:7]
        # the f-exponents (i1, i2, i3) of the source monomial per weight space
        # and theta code, and factors[b, theta, k] = (1, i, C(i, 2), chi_k^[i = p-1])
        i = self._exponents(betas)
        factors = np.empty(i.shape + (4,), dtype=np.int64)
        factors[..., 0] = 1
        factors[..., 1] = i
        factors[..., 2] = i * (i - 1) // 2 % p
        factors[..., 3] = np.where(i == p - 1, np.array(self.chi), 1)
        # the column of factors.reshape(len(i), -1) each row reads per f_k
        value = np.where((j == 0) & (a == 1), 3, j)
        index = (theta[:, None] * 3 + np.arange(3)) * 4 + value
        factors = factors.reshape(len(i), -1)
        coef = (rows[:, 8] + rows[:, 9:] @ lam) % p  # c0 + lambda . c
        for k in range(3):
            coef = coef * factors[:, index[:, k]] % p
        # the rows run by slot, then by (theta', theta): sum each cell's run
        cells = (slot * 16 + rows[:, 7]) * 16 + theta
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        out = np.zeros((len(i), len(gens) * 256), dtype=np.int64)
        out[:, cells[starts]] = np.add.reduceat(coef, starts, axis=1) % p
        return out.reshape(len(i), len(gens), 16, 16).swapaxes(0, 1)

    @functools.cached_property
    def generator_blocks(self) -> np.ndarray:
        """The blocks the derivation identity reads, (17, 17, 16, 16) int64.

        [g, u] is the block of g from M_{wt u}: one ``column`` call on all 17
        generators and their 17 weights.  Read-only.
        """
        blocks = self.column(tuple(range(17)), self.algebra.weights)
        blocks.flags.writeable = False
        return blocks

    # -- materialized matrices -------------------------------------------------

    def action_matrix(self, g: int):
        """Sparse matrix of the generator action, from one ``column`` call
        over all p^3 weights; the monomial indices of the source and target
        weight spaces are one ``encode`` each, over all weights and codes."""
        import scipy.sparse as sp  # only whole-module work builds one

        mat = self._matrices.get(g)
        if mat is None:
            p = self.p
            betas = tuple(itertools.product(range(p), repeat=3))
            blocks = self.column((g,), betas)[0]
            codes = np.arange(16)
            sources = encode(*np.moveaxis(self._exponents(betas), 2, 0), codes, p)
            shifted = np.array(betas) + self.algebra.weights[g]
            targets = encode(*np.moveaxis(self._exponents(shifted), 2, 0), codes, p)
            k, r, c = np.nonzero(blocks)
            mat = self._matrices[g] = sp.csr_matrix(
                (blocks[k, r, c], (targets[k, r], sources[k, c])),
                shape=(self.dim, self.dim),
                dtype=np.int64,
            )
        return mat

    def matrices(self) -> list:
        """All 17 action matrices (building any that are missing)."""
        return [self.action_matrix(g) for g in range(17)]

    def weight_codes(self) -> np.ndarray:
        """Weight of every index, packed as b1*p^2 + b2*p + b3."""
        p = self.p
        b1, b2, b3 = monomial_weight(
            np.arange(self.dim, dtype=np.int64), self.lam, p
        )
        return (b1 * p + b2) * p + b3


# -- the crossing table ----------------------------------------------------------

# (p, alpha, digest of the bracket tensor) -> (rows, offsets); see crossing_table
_TABLES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
# the highest weights 0, e1, e2, e3 at which the tails are straightened
_REFERENCE_LAMBDAS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def crossing_table(algebra: SuperAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The algebra's crossing table as (rows, offsets), built once per process.

    rows[offsets[g]:offsets[g + 1]] are the rows of generator g, int32 columns
    (theta, j1, j2, j3, a1, a2, a3, theta', c0, c1, c2, c3) holding residues,
    sorted by (theta', theta) (module docstring).  The cache is keyed by what
    a table is computed from, p, alpha and the bracket tensor, so an algebra
    whose bracket table was altered gets its own; a build that raises
    caches nothing.
    """
    digest = hashlib.sha256(algebra.ad.tobytes()).digest()
    key = (algebra.p, algebra.alpha, digest)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_crossing_table(algebra)
    return table


def _generator_rows(table, gens) -> tuple[np.ndarray, np.ndarray]:
    """The table's rows of gens, in the order of gens, as int64, and each
    row's slot: the position in gens of its generator."""
    rows, offsets = table
    index = np.concatenate([np.arange(offsets[g], offsets[g + 1]) for g in gens])
    slot = np.repeat(np.arange(len(gens)), np.diff(offsets)[list(gens)])
    return rows[index].astype(np.int64), slot


def _build_crossing_table(algebra: SuperAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Paths D_2^j3 D_1^j2 D_0^j1 joined with the 272 tails g' y^theta v.

    Raises ConsistencyError where ad f_k^3 != 0, a tail holds some f_k
    twice, or a row leaves the weight or parity grading, which no bracket
    table of D(2,1;alpha) does.
    """
    p = algebra.p
    # tails, one row per monomial: (g', theta, a1, a2, a3, theta', c0, c1, c2, c3)
    references = [VermaModule(algebra, lam, (0, 0, 0)) for lam in _REFERENCE_LAMBDAS]
    tails = []
    for g, code in itertools.product(range(17), range(16)):
        base, *units = (m.normal_form([g, *Y_WORDS[code]]) for m in references)
        for n in set(base).union(*units):
            c0 = base.get(n, 0)
            slopes = [(u.get(n, 0) - c0) % p for u in units]
            tails.append((g, code, *decode(n, p), c0, *slopes))
    tails = np.array(tails, dtype=np.int64).reshape(-1, 10)
    # powers[k][j][g', g] is the coefficient of g' in D_k^j(g), D_k = [-, f_k]
    powers = []
    for k in range(3):
        D = algebra.ad[:, :, F1 + k].T
        powers.append([np.eye(17, dtype=np.int64)])
        for _ in range(3):
            powers[k].append(D @ powers[k][-1] % p)
        if powers[k].pop().any():
            raise ConsistencyError(f"ad f{k + 1} is not nilpotent of order 3")
    js = list(itertools.product(range(3), repeat=3))
    paths = np.array([
        powers[2][j3] @ (powers[1][j2] @ powers[0][j1] % p) % p for j1, j2, j3 in js
    ])
    # join each path (j, g -> g') with the tails of g'
    path, via, g = np.nonzero(paths)
    joined, tail = np.nonzero(via[:, None] == tails[:, 0])
    path, g, tails = path[joined], g[joined], tails[tail]
    coef = paths[path, tails[:, 0], g][:, None] * tails[:, 6:] % p
    j = np.array(js)[path]
    keys = np.column_stack([g, tails[:, 5], tails[:, 1], j, tails[:, 2:5]])
    # merge the rows of one key (one per g'), dropping those that cancel
    order = np.lexsort(keys.T[::-1])
    keys, coef = keys[order], coef[order]
    starts = np.flatnonzero(np.diff(keys, axis=0, prepend=-1).any(axis=1))
    keys, coef = keys[starts], np.add.reduceat(coef, starts) % p
    kept = coef.any(axis=1)
    keys, coef = keys[kept], coef[kept]
    g, target, theta, j, a = keys[:, 0], keys[:, 1], keys[:, 2], keys[:, 3:6], keys[:, 6:]
    if (a > 1).any():  # column reads one of four factors per f_k (module docstring)
        raise ConsistencyError("a tail g' y^theta v holds some f_k twice")
    _check_grading(algebra, g, theta, j, a, target)
    rows = np.column_stack([theta, j, a, target, coef]).astype(np.int32)
    return rows, np.searchsorted(g, np.arange(18))


def _check_grading(algebra: SuperAlgebra, g, theta, j, a, target) -> None:
    """Raise ConsistencyError unless every row keeps the weight and parity grading.

    A row moves a monomial's weight by -2 (a - j) + wt(theta') - wt(theta),
    which must be wt(g) mod p, and theta' must have parity |theta| + |g|.
    """
    p = algebra.p
    moved = -2 * (a - j) + _THETA_WEIGHTS[target] - _THETA_WEIGHTS[theta]
    weight = (moved - np.array(algebra.weights)[g]) % p
    parity = (monomial_parity(theta) + np.array(PARITY)[g] + monomial_parity(target)) % 2
    bad = np.flatnonzero(weight.any(axis=1) | parity)
    if bad.size:
        r = bad[0]
        raise ConsistencyError(
            f"{GENERATOR_NAMES[g[r]]} maps theta code {theta[r]} to theta code "
            f"{target[r]} with f-shift {tuple(int(x) for x in a[r] - j[r])}, "
            f"outside the weight-{algebra.weights[g[r]]} shift of its parity"
        )


def verify_module_axioms(p: int, alpha: int, lam, chi) -> list[str]:
    """Exact checks of the module structure; an empty list is a pass.

    The action matrices go through the check the algebra's adjoint
    representation also passes (``algebra.representation_defects``): the
    super-commutator identity for all ordered generator pairs and
    restrictedness (f_i^p = chi(f_i)^p, e_i^p = 0, h_i^p = h_i).  It also
    decides the odd squares and the weight grading.  For an odd generator a,
    [a, a] = 0, so the defect of the pair (a, a) is 2 rho(a)^2, which
    vanishes exactly when rho(a)^2 does (p is odd).  And rho(h_i) is beta_i
    on the weight space beta, so the pairs (h_i, g) hold exactly when rho(g)
    maps each weight space beta into beta + wt(g).
    """
    algebra = build_algebra(p, alpha)
    module = VermaModule(algebra, lam, chi)
    bad: list[str] = []
    for gens, _ in representation_defects(algebra, module.matrices(), module.chi):
        names = ",".join(GENERATOR_NAMES[g] for g in gens)
        if len(gens) == 2:
            bad.append(f"commutator identity fails for [{names}]")
        else:
            bad.append(f"{names}^p differs from the image of its p-map")
    return bad
