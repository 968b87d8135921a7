"""First cohomology of D(2,1;alpha) with baby Verma coefficients.

A parity-homogeneous linear map phi: g -> M is a superderivation when

    phi([x, y]) = (-1)^{|phi||x|} x phi(y) - (-1)^{|y|(|phi|+|x|)} y phi(x)

for all x, y.  Inner derivations are the maps D_m(x) = (-1)^{|x||m|} x m.
H^1(g, M) is Der/Ider, and because both spaces are weight-graded it is
isomorphic to the quotient of the 0-weight derivations by the 0-weight inner
derivations.  A 0-weight derivation sends each generator b into the 16-dim
weight space M_{beta_b}, so per parity it is a vector of 17 x 8 = 136
coordinates; the derivation identity becomes a small exact linear system.

The system needs only the pairs that hold a member of a generating set.  Let

    D(x, y) = phi([x,y]) - (-1)^{|phi||x|} x phi(y) + (-1)^{|y|(|phi|+|x|)} y phi(x).

D is bilinear and super-antisymmetric, and by the super-Jacobi identity and
the module axioms D([x,y], z) is a signed sum of x D(y,z), y D(x,z), z D(x,y),
D([x,z], y) and D([y,z], x).  So the homogeneous x with D(x, .) = 0 span a
subalgebra, and phi is a derivation once D(s, .) = 0 for each s of
algebra.GENERATING_SET.

Nor are all 136 coordinates unknown.  Each step (g, a, b) of
algebra.GENERATING_CHAIN, [a, b] = c g, solves D(a, b) = 0 for phi(g), so a
derivation is fixed by its 32 coordinates on the set: phi = T x for the
per-parity map T of `GradedLayout.chain_map` (136 x 32).
`GradedLayout.equations`, the system `h1` solves, is the identity on the 62
unordered pairs {a, b} with a or b in the set, written in those 32 unknowns:
its kernel K gives the 0-weight derivations as T K.  Its rows on the 13 chain
pairs vanish exactly when T solves its own chain, and `equations` checks
that.  `DerivationMap.defects` evaluates the same builder on all 153 pairs
at the map's own coordinates, so every representative and psi family is
checked against the whole identity.

The ungraded oracle solves for the full derivation space without the
0-weight restriction (17 unknown module vectors per parity) and cross-checks
dim Der - dim Ider against the graded quotient.  It writes every pair in
every coordinate, so it rests on neither the lemma nor the chain above.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    E1, E2, E3, F2, F3, H1, H2, H3, X1, X2, X3, X4,
    GENERATING_CHAIN, GENERATING_SET, GENERATOR_NAMES, PARITY, build_algebra,
)
# ConsistencyError is re-exported here for cli and the tests
from .enveloping import (
    J1_CODES, J3_CODES, ActionSlice, ConsistencyError, VermaModule,
    monomial_parity,
)

# the theta codes of each monomial parity, and each code's slot among them
_CODES = (J1_CODES, J3_CODES)
_THETA_POS = tuple({c: i for i, c in enumerate(codes)} for codes in _CODES)

# the unordered generator pairs a <= b in lexicographic order, and those of
# them that hold a member of GENERATING_SET
_PAIRS = tuple((a, b) for a in range(17) for b in range(a, 17))
_GENERATOR_PAIRS = tuple(
    (a, b) for a, b in _PAIRS if a in GENERATING_SET or b in GENERATING_SET
)
_CHAIN_PAIRS = tuple((a, b) for _, a, b in GENERATING_CHAIN)
# where the chain pairs sit among the generator pairs
_CHAIN_ROWS = [_GENERATOR_PAIRS.index(tuple(sorted(q))) for q in _CHAIN_PAIRS]
# phi(g)'s coordinates in the 136 graded coordinates themselves
_UNIT = np.eye(17 * 8, dtype=np.int64).reshape(17, 8, 17 * 8)


@dataclass
class DerivationMap:
    """A parity-homogeneous 0-weight map g -> M as its 136 graded coordinates.

    phi(b) lies in the weight-beta_b space, and coords[b*8 + i] is its
    coefficient on the monomial with theta code
    GradedLayout(module, parity).thetas[b][i] there: its column order.
    """

    parity: int
    coords: np.ndarray

    def defects(self, module: VermaModule) -> list[tuple[str, str]]:
        """Ordered generator pairs violating the derivation identity.

        Evaluates the identity of all 153 unordered pairs {a,b} at this map:
        the one builder, GradedLayout._operator, with phi's coordinates as
        its single unknown.  A pair fails where one of its 8 values is
        nonzero, and is listed in both orders, sorted: with
        eps = -(-1)^{|a||b|}, [b,a] = eps [a,b] and the identity of (b,a) is
        eps times that of (a,b).
        """
        phi = (self.coords % module.p).reshape(17, 8, 1)
        values = GradedLayout(module, self.parity)._operator(_PAIRS, phi)
        failing = values.any(axis=(1, 2))
        ordered = sorted(
            {q for (a, b), bad in zip(_PAIRS, failing) if bad for q in ((a, b), (b, a))}
        )
        return [(GENERATOR_NAMES[a], GENERATOR_NAMES[b]) for a, b in ordered]


def _image_support(phi: DerivationMap, module: VermaModule, g: int) -> list[list[int]]:
    """[monomial index, coefficient] pairs of phi(g), sorted by index."""
    layout = GradedLayout(module, phi.parity)
    beta = module.algebra.weights[g]
    support = []
    for code in layout.thetas[g]:
        c = int(phi.coords[layout.col(g, code)]) % module.p
        if c:
            support.append([module.w_index(beta, code), c])
    return sorted(support)


class GradedLayout:
    """Coordinates for 0-weight maps of one parity: unknown (b, theta) pairs."""

    def __init__(self, module: VermaModule, parity: int):
        self.module = module
        self.parity = parity
        # y-exponent patterns available to phi(b): image parity is |b|+|phi|
        self.thetas = tuple(_CODES[(PARITY[b] + parity) % 2] for b in range(17))
        self.ncols = 17 * 8

    def col(self, b: int, code: int) -> int:
        return b * 8 + _THETA_POS[(PARITY[b] + self.parity) % 2][code]

    # -- the linear system -------------------------------------------------

    def _operator(self, pairs, coords) -> np.ndarray:
        """The identity's rows on the given pairs, in the unknowns of coords.

        coords[g] (coords has shape (17, 8, n)) gives phi(g) on its 8 codes
        in n unknowns.  Row e of the result, shape (len(pairs), 8, n), mod p,
        is phi([a,b]) - s1 a.phi(b) + s2 b.phi(a) for (a, b) = pairs[e] in
        them: c coords[g] for each term c.g of [a,b], minus s1 times the 8x8
        slice of a times coords[b], plus s2 times that of b times coords[a],
        one einsum per term.  Its 8 rows are the theta codes of weight
        beta_a + beta_b and parity |a|+|b|+|phi|; the other 8 vanish by the
        parity grading.  [a,b] has parity |a|+|b|, so phi([a,b]) reads its
        coordinates as they are.  An even diagonal row is 0 = 0, and an odd
        one reads 2 a.phi(a) = 0, as [a,a] = 0.  chain_map() passes the unit
        coordinates (n = 136), equations() the chain map T (n = 32) and
        `DerivationMap.defects` phi itself (n = 1).  Builds only the blocks
        those rows read: a from M_{beta_b} and b from M_{beta_a} for each
        pair.  With coords, blocks and brackets reduced mod p, an entry sums
        at most 17 + 2*8 products below p^2 before its reduction, so it is
        exact while 33 (p-1)^2 < 2^63: of the graded path, only
        `linalg.reduce` needs the tighter 136 (p-1)^2 < 2^63.
        """
        module, par = self.module, self.parity
        alg = module.algebra
        odd = np.array(PARITY)
        a, b = np.array(pairs).T
        # blocks[g, u] = g from M_{beta_u}; an even diagonal cancels in its own row
        blocks = np.zeros((17, 17, 16, 16), dtype=np.int64)
        for g, u in sorted(set(pairs) | {(u, g) for g, u in pairs}):
            if g != u or odd[g]:
                blocks[g, u] = module.block(g, alg.weights[u])
        # ab[e] = a.phi(b) and ba[e] = b.phi(a) on the row codes of pair e
        rows = np.array(_CODES)[(odd[a] + odd[b] + par) % 2][:, :, None]
        thetas = np.array(self.thetas)
        ab = blocks[a[:, None, None], b[:, None, None], rows, thetas[b][:, None]]
        ba = blocks[b[:, None, None], a[:, None, None], rows, thetas[a][:, None]]
        s1, s2 = _signs(par, a, b)
        L = np.einsum("eg,gin->ein", alg.ad[a, :, b], coords)
        L -= np.einsum("eij,ejn->ein", s1[:, None, None] * ab, coords[b])
        L += np.einsum("eij,ejn->ein", s2[:, None, None] * ba, coords[a])
        L %= module.p
        L.flags.writeable = False
        return L

    def chain_map(self) -> np.ndarray:
        """T, shape (17, 8, 32): each phi(g) in phi's values on GENERATING_SET.

        Unknown 8k + i is coordinate i of the set's k-th member s, so T[s] is
        a unit block.  Step (g, a, b) of GENERATING_CHAIN reads the row of
        the pair (a, b) in the 136 coordinates, c phi(g) + A phi(a) + B phi(b),
        and sets T[g] = -(A T[a] + B T[b]) / c, the sum of 16 products below
        p^2 reduced before it is scaled.  Cached per module and parity.
        """

        def build():
            p = self.module.p
            T = np.zeros((17, 8, 8 * len(GENERATING_SET)), dtype=np.int64)
            for k, s in enumerate(GENERATING_SET):
                T[s, :, 8 * k:8 * k + 8] = np.eye(8, dtype=np.int64)
            rows = self._operator(_CHAIN_PAIRS, _UNIT).reshape(-1, 8, 17, 8)
            brackets = self.module.algebra.bracket_items
            for (g, a, b), L in zip(GENERATING_CHAIN, rows):
                inverse = pow(dict(brackets[a][b])[g], p - 2, p)
                T[g] = -(L[:, a] @ T[a] + L[:, b] @ T[b]) % p * inverse % p
            T.flags.writeable = False
            return T

        return _cached(self.module, ("chain", self.parity), build)

    def equations(self) -> np.ndarray:
        """Rows of the 0-weight derivation system that `h1` solves.

        The nonzero rows of the identity on the 62 pairs that hold a member
        of GENERATING_SET, in the 32 unknowns of chain_map() (184-364 rows
        over the p=5, alpha=2 slice): by the module docstring, T times their
        kernel is that of the identity on all 153 pairs.  Raises
        ConsistencyError unless the rows of the 13 chain pairs vanish, which
        holds exactly when T solves its chain.  Not cached: `graded_spaces`,
        its one caller in the engine, is.
        """
        L = self._operator(_GENERATOR_PAIRS, self.chain_map())
        if L[_CHAIN_ROWS].any():
            raise ConsistencyError("the chain map fails the identity of its pairs")
        rows = L.reshape(-1, L.shape[2])
        return rows[rows.any(axis=1)]

    def inner_vectors(self) -> np.ndarray:
        """One row per D_m, m a weight-0 basis monomial of this parity."""
        module = self.module
        codes = _CODES[self.parity]
        vecs = np.zeros((8, self.ncols), dtype=np.int64)
        for b in range(17):
            sign = -1 if PARITY[b] and self.parity else 1
            block = module.block(b, (0, 0, 0))
            vecs[:, b * 8:(b + 1) * 8] = sign * block[np.ix_(self.thetas[b], codes)].T
        return vecs % module.p


def _signs(parity: int, a, b):
    """(s1, s2) = ((-1)^{|phi||a|}, (-1)^{|b|(|phi|+|a|)}) of the pairs (a, b)."""
    odd = np.array(PARITY)
    return (-1) ** (parity * odd[a]), (-1) ** ((parity + odd[a]) * odd[b])


def _cached(module: VermaModule, key, build):
    """build() once per module and key: the one cache of the graded layer."""
    cache = module.__dict__.setdefault("_graded_cache", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def graded_spaces(module: VermaModule, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """(0-weight derivation kernel, inner span) as RREF arrays, cached per module.

    Both are in the 136 graded coordinates: the kernel of equations() is
    solved in 32 unknowns and lifted by the chain map.
    """

    def build():
        p = module.p
        layout = GradedLayout(module, parity)
        T = layout.chain_map().reshape(layout.ncols, -1)
        kernel = linalg.kernel_basis(layout.equations(), p) @ T.T
        return linalg.rref(kernel, p)[0], linalg.rref(layout.inner_vectors(), p)[0]

    return _cached(module, ("spaces", parity), build)


@dataclass
class H1Result:
    module: VermaModule
    dim_even: int
    dim_odd: int
    representatives: list[DerivationMap] = field(default_factory=list)
    graded_dims: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def sdim(self) -> tuple[int, int]:
        return (self.dim_even, self.dim_odd)

    def to_json_dict(self) -> dict:
        module = self.module
        reps = []
        for rep in self.representatives:
            images = {
                GENERATOR_NAMES[g]: _image_support(rep, module, g) for g in range(17)
            }
            reps.append(
                {"parity": "even" if rep.parity == 0 else "odd", "images": images}
            )
        return {
            "p": module.p,
            "alpha": module.algebra.alpha,
            "lambda": list(module.lam),
            "chi_f": list(module.chi),
            "h1": {"even": self.dim_even, "odd": self.dim_odd},
            "representatives": reps,
        }


def h1(module: VermaModule) -> H1Result:
    """H^1 superdimension and outer-class representatives.

    Per parity: the quotient of the 0-weight derivation space by the inner
    subspace.  Representatives are kernel basis vectors reduced modulo the
    inner space, re-echelonized, and re-verified against the derivation
    identity on all generator pairs.
    """
    p = module.p
    dims = {}
    graded = {}
    reps: list[DerivationMap] = []
    for parity in (0, 1):
        kernel, inner = graded_spaces(module, parity)
        if linalg.reduce(kernel, inner, p).any():
            raise ConsistencyError("inner derivations fall outside the kernel")
        dims[parity] = len(kernel) - len(inner)
        graded[parity] = (len(kernel), len(inner))
        if dims[parity]:
            basis, _ = linalg.rref(linalg.reduce(inner, kernel, p), p)
            if basis.shape[0] != dims[parity]:
                raise ConsistencyError("representative extraction lost rank")
            for row in basis:
                rep = DerivationMap(parity, row)
                if rep.defects(module):
                    raise ConsistencyError("representative fails the identity")
                reps.append(rep)
    return H1Result(module, dims[0], dims[1], reps, graded)


# -- ungraded oracle ---------------------------------------------------------

# The largest p the ungraded oracle accepts: its system has 136 p^3 unknowns
# per parity.
ORACLE_MAX_P = 7


def full_derivation_dims(module: VermaModule, parity: int) -> tuple[int, int]:
    """(dim Der, dim Ider) of the given parity, with no weight restriction.

    Unknowns are 17 full module vectors: phi(g) lies in the half of M of
    parity |g|+|phi|, block column g of the system, so column g*half + i is
    the i-th monomial of that half.  Block row e stacks the identity for the
    e-th unordered generator pair (then the odd diagonals) on every module
    coordinate, row e*dim + n: c times the identity's parity-column slice for
    each term c.g of [a,b], and signed parity-column slices of the action
    matrices of a and b.  The system splits into column-connected components
    that are eliminated exactly; its kernel dimension is the derivation-space
    dimension.  It writes every pair, where `GradedLayout.equations` writes
    only the pairs of GENERATING_SET: an oracle that shared that lemma could
    not catch a fault in it, or in the set.  Feasible sizes only: refuses
    p > ORACLE_MAX_P.
    """
    import scipy.sparse as sp  # only the oracle builds whole-module systems

    p = module.p
    if p > ORACLE_MAX_P:
        raise ValueError(f"ungraded oracle is limited to p <= {ORACLE_MAX_P}")
    mats = module.matrices()
    mp = monomial_parity(np.arange(module.dim, dtype=np.int64))
    for g, mat in enumerate(mats):
        coo = mat.tocoo()
        if ((mp[coo.row] + mp[coo.col] + PARITY[g]) % 2).any():
            raise ConsistencyError("action violates the parity grading")
    halves = [np.flatnonzero(mp == q) for q in (0, 1)]
    # the identity and each generator's action on the monomials of each parity
    ident = sp.identity(module.dim, dtype=np.int64, format="csc")
    eye = [ident[:, h] for h in halves]
    acts = [[csc[:, h] for h in halves] for csc in (mat.tocsc() for mat in mats)]
    unk = [(PARITY[g] + parity) % 2 for g in range(17)]  # the parity of phi(g)
    bracket = module.algebra.bracket_items
    pairs = [(a, b) for a in range(17) for b in range(a + 1, 17)]
    pairs += [(a, a) for a in range(17) if PARITY[a]]
    grid = [[[] for _ in range(17)] for _ in pairs]
    for terms, (a, b) in zip(grid, pairs):
        if a == b:
            terms[a].append(acts[a][unk[a]])
            continue
        for g, c in bracket[a][b]:
            terms[g].append(c * eye[unk[g]])
        s1 = -1 if parity and PARITY[a] else 1
        s2 = -1 if PARITY[b] and (parity + PARITY[a]) % 2 else 1
        terms[b].append(-s1 * acts[a][unk[b]])
        terms[a].append(s2 * acts[b][unk[a]])
    # a block is the sum of its terms, and None (zero) when it has none
    system = sp.bmat([[sum(t[1:], t[0]) if t else None for t in row] for row in grid])
    # row m of the inner matrix is D_m, D_m(b) = (-1)^{|b||m|} b.m of parity unk[b]
    inner = sp.hstack([
        (-1 if PARITY[b] and parity else 1) * acts[b][parity][halves[unk[b]]].T
        for b in range(17)
    ])
    dim_der = system.shape[1] - linalg.rank(linalg.SparseMatrix(system, p))
    return dim_der, linalg.rank(linalg.SparseMatrix(inner, p))


# -- the psi families ---------------------------------------------------------


PSI_REGIMES = {
    1: ((2, -2, -2), 0, ("a1", "a2", "a3", "a_m2e2", "a_m2e3")),
    2: ((2, -2, 0), 0, ("a_2e3",)),
    3: ((2, 0, -2), 0, ("a_2e2",)),
    4: ((3, -3, -3), 1, ("a_2e1_1110",)),
}


@dataclass
class PsiDerivation:
    which: int
    map: DerivationMap
    notes: tuple[str, ...]


def psi_lambda(which: int, p: int) -> tuple[int, int, int]:
    lam, _, _ = PSI_REGIMES[which]
    return tuple(v % p for v in lam)


def _psi_theta_images(which: int, params, module: VermaModule):
    """Images as {generator: {theta code: coeff}}, plus display notes.

    Weight subscripts of the defining tables are normalized to the acted-on
    generator's weight (a 0-weight map admits nothing else); the two entries
    where the display differs from that normalization are reported.
    """
    p = module.p
    alpha = module.algebra.alpha
    img: dict[int, dict[int, int]] = {}
    notes: list[str] = []

    def add(g, code, c):
        c %= p
        if c:
            img.setdefault(g, {})[code] = (img.get(g, {}).get(code, 0) + c) % p

    if which == 1:
        a1, a2, a3, b2, b3 = params

        def combo(s2, s3):
            return ((1 + alpha) * a1 + s2 * a2 + s3 * alpha * a3) % p

        for g, c in ((H1, a1), (H2, a2), (H3, a3)):
            add(g, 15, c)
        add(F2, 15, b2)
        add(F3, 15, b3)
        notes.append(
            "psi1 images of f2, f3 normalized to their own weight spaces "
            "(displayed subscript repeats -2eps2)"
        )
        add(E1, 12, 2 * b2)
        add(E1, 10, -2 * alpha * b3)
        add(E1, 9, combo(-1, +1))
        add(E1, 6, -combo(-1, -1))
        add(E1, 15, -a1)
        add(E2, 15, -a2)
        add(E3, 15, -a3)
        add(X1, 14, combo(-1, -1))
        add(X1, 13, combo(-1, +1))
        add(X1, 11, -combo(+1, -1))
        add(X1, 7, -combo(+1, +1))
        add(X2, 14, -2 * alpha * b3)
        add(X2, 13, combo(-1, +1))
        add(X2, 11, 2 * alpha * b3)
        add(X2, 7, -combo(+1, +1))
        add(X3, 14, -2 * b2)
        add(X3, 13, -2 * b2)
        add(X3, 11, -combo(+1, -1))
        add(X3, 7, -combo(+1, +1))
        add(X4, 13, -2 * b2)
        add(X4, 11, 2 * alpha * b3)
        add(X4, 7, -combo(+1, +1))
    elif which == 2:
        (a,) = params
        add(E1, 5, 2 * alpha * a)
        add(E3, 15, a)
        add(X1, 13, -2 * alpha * a)
        add(X1, 7, 2 * alpha * a)
        add(X3, 7, 2 * alpha * a)
    elif which == 3:
        (a,) = params
        add(E1, 3, -2 * a)
        notes.append(
            "psi3 image of e1 normalized to the weight-2eps1 space "
            "(displayed subscript reads 2eps2)"
        )
        add(E2, 15, a)
        add(X1, 11, 2 * a)
        add(X1, 7, 2 * a)
        add(X2, 7, 2 * a)
    elif which == 4:
        (a,) = params
        half = module.inv2
        c2 = (module.lam[1] + 1) * half % p
        c3 = (module.lam[2] + 1) * half % p
        add(E1, 14, a)
        add(X1, 15, -c2 * c3 * a)
        add(X2, 15, c2 * a)
        add(X3, 15, c3 * a)
        add(X4, 15, -a)
    else:
        raise ValueError("which must be 1..4")
    return img, notes


def psi(which: int, params, module: VermaModule) -> PsiDerivation:
    """One of the four outer families, extended by zero off its listed images.

    The module must be built at the matching lambda residues with chi = 0.
    Raises ConsistencyError, naming the first failing generator pair, when the
    zero extension is not a derivation.
    """
    lam_req, parity, names = PSI_REGIMES[which]
    p = module.p
    if module.lam != tuple(v % p for v in lam_req):
        raise ValueError(
            f"psi{which} lives at lambda = {tuple(v % p for v in lam_req)}, "
            f"module has {module.lam}"
        )
    if module.chi != (0, 0, 0):
        raise ValueError(f"psi{which} requires chi = 0")
    if len(params) != len(names):
        raise ValueError(f"psi{which} takes parameters {names}")
    theta_images, notes = _psi_theta_images(which, tuple(params), module)
    layout = GradedLayout(module, parity)
    coords = np.zeros(layout.ncols, dtype=np.int64)
    for b, images in theta_images.items():
        for code, c in images.items():
            coords[layout.col(b, code)] = c
    built = DerivationMap(parity, coords)
    bad = built.defects(module)
    if bad:
        raise ConsistencyError(
            f"psi{which} at p={p} alpha={module.algebra.alpha} lambda={module.lam}: "
            f"the zero extension fails the derivation identity at pair "
            f"({bad[0][0]}, {bad[0][1]})"
        )
    return PsiDerivation(which, built, tuple(notes))


# -- structural checks ---------------------------------------------------------


def check_lemma_h_images(module: VermaModule) -> list[str]:
    """Images of the Cartan generators across the 0-weight derivation basis.

    phi(h_i) must vanish unless lambda is psi1's, (2, -2, -2) mod p, with
    chi = 0, in which case it may only hit the weight-0 monomial with all four
    y's.
    """
    p = module.p
    special = module.lam == psi_lambda(1, p) and module.chi == (0, 0, 0)
    allowed = {module.w_index((0, 0, 0), 15)} if special else set()
    bad = []
    for parity in (0, 1):
        kernel = graded_spaces(module, parity)[0]
        for k, row in enumerate(kernel):
            phi = DerivationMap(parity, row)
            for i, h in enumerate((H1, H2, H3)):
                support = _image_support(phi, module, h)
                stray = [n for n, _ in support if n not in allowed]
                if stray:
                    bad.append(
                        f"parity {parity} basis vector {k}: phi(h{i+1}) has "
                        f"unexpected support {stray}"
                    )
    return bad


# -- scan worker -----------------------------------------------------------------


@dataclass(frozen=True)
class PointSummary:
    p: int
    alpha: int
    lam: tuple[int, int, int]
    chi_f: tuple[int, int, int]
    dim_even: int
    dim_odd: int


# The largest p at which compute_point reads its columns from a slice.  The
# slice pays when a point's columns recur across the lambda of its slice: over
# consecutive lambda (scan order) 97% of a point's column requests recur at
# p=5 and 96% at p=7, and a full slice holds 4.6 and 11.7 MB.  At p=31 45%
# recur: a slice point gains about 10% over a long scan, but the memo grows
# by about 0.4 MB a point toward the 17 * 16 p^3 columns of a full slice (8M);
# at p=101 35% recur, and a slice point is slower than straightening.
SLICE_MAX_P = 7


@functools.lru_cache(maxsize=1)
def _action_slice(p: int, alpha: int, chi) -> ActionSlice:
    """The slice of one reduced (p, alpha, chi): the one cache of compute_point.

    A scan's tasks are alpha-major and a worker takes them in consecutive
    chunks, so consecutive points share a slice, and one entry per process
    bounds memory by one slice (11.7 MB at p=7).  A point of another slice
    drops it.
    """
    return ActionSlice(build_algebra(p, alpha), chi)


def compute_point(p: int, alpha: int, lam, chi) -> PointSummary:
    """Graded H^1 at one parameter point (process-pool friendly).

    At p <= SLICE_MAX_P its module reads its columns from ``_action_slice``,
    which consecutive points of one (p, alpha mod p, chi mod p) share; above
    that it straightens its own.
    """
    alpha, chi = alpha % p, tuple(c % p for c in chi)
    if p <= SLICE_MAX_P:
        module = _action_slice(p, alpha, chi).module(lam)
    else:
        module = VermaModule(build_algebra(p, alpha), lam, chi)
    result = h1(module)
    return PointSummary(
        p, alpha, tuple(v % p for v in lam), chi, result.dim_even, result.dim_odd,
    )
