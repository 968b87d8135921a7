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
confluent rewriting system: adjacent out-of-order pairs a*b are replaced by
(-1)^{|a||b|} b*a + [a,b], squares of odd generators vanish, f_i^p reduces to
the scalar chi(f_i)^p, and at the right boundary e_i and x_i kill v while h_i
contributes lambda_i.

An action column g * f1^i1 f2^i2 f3^i3 y^theta v does not move g past the
f-segment one letter at a time.  Since f_k is even, x f_k = f_k x + [x, f_k],
so x f_k^i = sum_j C(i, j) f_k^(i-j) D^j(x) with D = [-, f_k] (Humphreys,
"Introduction to Lie Algebras", 7.2).  ad f_k is nilpotent on D(2,1;alpha)
(ad f_k^3 = 0), so the sum has at most three terms, whatever i and p are.
Each term's algebra element crosses the next level the same way; the y-tail
of at most five letters is left to the rewriting system.  A column thus costs
the same at every p.

Every weight space holds exactly one monomial per theta code, so a generator
acts as one 16x16 block per weight (``VermaModule.block``); every consumer of
the action reads these blocks.

For a fixed generator g and index n, the column g * n is affine in lambda:

    g * n = c0 + lambda_1 c1 + lambda_2 c2 + lambda_3 c3   (mod p)

with (c0, c1, c2, c3) independent of lambda.  Crossing the f-segment uses
binomials, brackets and chi wraps that depend on n alone; lambda enters only
when a term's y-tail g' y^theta v is reduced, where an h_k that reaches v
gives lambda_k.  In that reduction every letter but one is a negative root
vector (a y or an f): the bracket of two negative root vectors is one or 0,
and a bracket with the one other letter (g', or the letter that replaced it)
replaces that letter.  So a word holds at most one h, and each term picks up
at most one lambda_k.  ``ActionSlice`` keeps these affine columns for every
module of one (algebra, chi): it packs (c0, c1, c2, c3) as four lanes of one
int, which the one crossing recursion, ``VermaModule._cross``, carries as it
carries a scalar, since it only adds and multiplies by residues.
tests/test_enveloping.py::test_slice_blocks_match_straightening compares the
blocks of modules made from a slice with those of directly built,
straightening modules.
"""
from __future__ import annotations

import itertools

import numpy as np

from .algebra import (
    E1, E2, E3, F1, F2, F3, H1, H2, H3, X1, X2, X3, X4, Y1, Y2, Y3, Y4,
    GENERATING_CHAIN, GENERATOR_NAMES, PARITY, SuperAlgebra,
    build_algebra, representation_defects,
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
# per theta code, for the scalar hot paths: the y-weight and the y-word
THETA_WEIGHTS = tuple(theta_weight(c) for c in range(16))
Y_WORDS = tuple(
    tuple(Y1 + k for k, jk in enumerate(theta_tuple(c)) if jk) for c in range(16)
)

# Generators whose blocks are commutators of other generators' blocks: the
# steps of GENERATING_CHAIN that reach x2, x3, x1 and e1.
DERIVED_GENS = {g: (a, b) for g, a, b in GENERATING_CHAIN if g in (X1, X2, X3, E1)}


class VermaModule:
    """A baby Verma module with lazily materialized generator actions.

    The module is determined by (algebra, lambda, chi).  The action of a
    generator on one weight space is a 16x16 block, computed on demand and
    cached; full sparse matrices are assembled from blocks only when
    requested, so weight-graded computations touching a few weight spaces
    stay cheap.

    A module built directly straightens its own action columns.  One made by
    ``ActionSlice.module`` reads them off its slice at its own lambda; the
    directly built module is the oracle it is tested against.
    """

    def __init__(self, algebra: SuperAlgebra, lam, chi, action_slice=None):
        p = algebra.p
        self.algebra = algebra
        self.p = p
        self.lam = tuple(v % p for v in lam)
        self.chi = tuple(c % p for c in chi)
        self.slice: ActionSlice | None = action_slice
        self.dim = 16 * p**3
        self.inv2 = pow(2, p - 2, p)
        self._blocks: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        # (generator, level, remaining f-exponents, theta code) -> coordinates
        self._crossings: dict[tuple, dict[int, int]] = {}
        self._spaces: dict[tuple[int, int, int], tuple[int, ...]] = {}
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
        """Indices of the 16 monomials of weight beta, by theta code, cached."""
        p = self.p
        beta = (beta[0] % p, beta[1] % p, beta[2] % p)
        space = self._spaces.get(beta)
        if space is None:
            space = self._spaces[beta] = tuple(
                self.w_index(beta, code) for code in range(16)
            )
        return space

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

    def column(self, g: int, n: int) -> dict[int, int]:
        """Coordinates of g * (basis monomial n).

        Straightened, or, for a module made by a slice, the slice's affine
        column evaluated at this module's lambda.
        """
        p = self.p
        if self.slice is None:
            i1, i2, i3, code = decode(n, p)
            crossed = self._cross(g, 0, (i1, i2, i3), code)
            return {m: r for m, v in crossed.items() if (r := v % p)}
        l1, l2, l3 = self.lam
        out = {}
        it = iter(self.slice.column(g, n))
        for m, c0, c1, c2, c3 in zip(it, it, it, it, it):
            v = (c0 + l1 * c1 + l2 * c2 + l3 * c3) % p
            if v:
                out[m] = v
        return out

    def _cross(self, g: int, k: int, exps, code: int) -> dict[int, int]:
        """Coordinates of g * f_{k+1}^exps[0] ... f_3^exps[-1] y^code v, unreduced.

        Crosses f = f_{k+1} to the power i = exps[0] in one step
        (``SuperAlgebra.crossing_terms``) and recurses on each generator of
        D^j(g).  Multiplying by f^(i-j) on the left only raises the k-th
        exponent (the f's commute), wrapping f^p to chi(f).  It only adds and
        multiplies by residues, so coefficients stay exact and non-negative
        (``column`` reduces once) and packed ``ActionSlice`` tails pass
        through it.  The inner levels are cached per owner; the top level
        (k = 0) is one key per column and is not.
        """
        if k:
            key = (g, k, exps, code)
            out = self._crossings.get(key)
            if out is not None:
                return out
        if not exps:  # only the y-tail is left: at most five letters
            out = self._crossings[key] = self._tail(g, code)
            return out
        p, chi_k = self.p, self.chi[k]
        i, rest = exps[0], exps[1:]
        stride = 16 * p ** len(rest)  # index step of the k-th exponent
        acc: dict[int, int] = {}
        for shift, term in self.algebra.crossing_terms(g, k, i):
            for h, c in term:
                for n, v in self._cross(h, k + 1, rest, code).items():
                    v = v * c
                    # an exponent below p plus a shift below p wraps at most once
                    if n // stride % p + shift >= p:
                        v *= chi_k
                        n -= p * stride
                    n += shift * stride
                    acc[n] = acc.get(n, 0) + v
        if not k:  # the caller reduces mod p and drops zeros
            return acc
        out = self._crossings[key] = {n: v for n, v in acc.items() if v}
        return out

    def _tail(self, g: int, code: int) -> dict[int, int]:
        """Coordinates of g y^code v, the innermost level of ``_cross``."""
        return self.normal_form([g, *Y_WORDS[code]])

    def _shifted(self, beta, g: int) -> tuple[int, int, int]:
        """The weight beta + wt(g), as canonical residues."""
        p, w = self.p, self.algebra.weights[g]
        return (beta[0] + w[0]) % p, (beta[1] + w[1]) % p, (beta[2] + w[2]) % p

    def block(self, g: int, beta) -> np.ndarray:
        """16x16 int64 matrix of g from M_beta to M_{beta + wt g}, cached.

        Rows and columns are indexed by theta code: entry (r, c) is the
        coefficient of w_index(beta + wt g, r) in g * w_index(beta, c).
        Raises ConsistencyError when a straightened column leaves the target
        weight space or breaks the parity grading; the closed forms and the
        commutators of checked blocks keep both by construction.
        """
        p = self.p
        beta = (beta[0] % p, beta[1] % p, beta[2] % p)
        key = (g, beta)
        B = self._blocks.get(key)
        if B is not None:
            return B
        if g <= H3:
            B = beta[g - H1] * np.eye(16, dtype=np.int64)
        elif F1 <= g <= F3:
            # f_k raises i_k by one; past p-1 it wraps to 0 with the scalar chi(f_k)
            k = g - F1
            B = np.diag(np.array([
                self.chi[k] if decode(n, p)[k] == p - 1 else 1
                for n in self.weight_basis(beta)
            ], dtype=np.int64))
        elif g in DERIVED_GENS:
            a, b = DERIVED_GENS[g]
            # [a, b] = c g: odd-odd for e1 = [x1,x4], even-odd for the x's
            sign = 1 if PARITY[a] and PARITY[b] else -1
            B = self.block(a, self._shifted(beta, b)) @ self.block(b, beta) + sign * (
                self.block(b, self._shifted(beta, a)) @ self.block(a, beta)
            )
            c = dict(self.algebra.bracket_items[a][b])[g]
            B = B % p * pow(c, p - 2, p) % p
        else:
            target = self._shifted(beta, g)
            sources, space = self.weight_basis(beta), self.weight_basis(target)
            by_parity = (J1_CODES, J3_CODES)
            B = np.zeros((16, 16), dtype=np.int64)
            for parity, codes in enumerate(by_parity):
                # the image of a code may only hold codes of parity |code| + |g|
                allowed = {space[r]: r for r in by_parity[(parity + PARITY[g]) % 2]}
                for c in codes:
                    for m, v in self.column(g, sources[c]).items():
                        r = allowed.get(m)
                        if r is None:
                            raise ConsistencyError(
                                f"{GENERATOR_NAMES[g]} maps monomial {sources[c]} "
                                f"outside the weight-{target} monomials of its parity"
                            )
                        B[r, c] = v
        B.flags.writeable = False
        self._blocks[key] = B
        return B

    # -- materialized matrices -------------------------------------------------

    def action_matrix(self, g: int):
        """Sparse matrix of the generator action, assembled from its p^3 blocks."""
        import scipy.sparse as sp  # only whole-module work builds one

        mat = self._matrices.get(g)
        if mat is None:
            betas = list(itertools.product(range(self.p), repeat=3))
            blocks = np.array([self.block(g, beta) for beta in betas])
            sources = np.array([self.weight_basis(beta) for beta in betas])
            targets = np.array([self.weight_basis(self._shifted(b, g)) for b in betas])
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


class ActionSlice:
    """The affine action columns of every module with one (algebra, chi).

    Straightens each y-tail at lambda = 0, e1, e2, e3 and takes differences
    (``_tail``); c_j of (c0, c1, c2, c3) is lane j, bits j*w to (j+1)*w - 1,
    of one int, which ``VermaModule._cross`` carries.  ``column`` unpacks
    each coordinate mod p and memoizes; ``module(lam)`` makes a
    ``VermaModule`` that reads its columns from here.

    Lanes never carry into each other: every factor is a residue >= 0 (a
    crossing coefficient, or chi(f_k) where f^p wraps) and a tail lane is a
    residue; a level sends at most three contributions to a coordinate, one
    per crossing term (each D^j(g) is a multiple of one generator), each an
    inner lane times at most (p-1)^2.  After the three levels a lane is at
    most (p-1) (3 (p-1)^2)^3 = 27 (p-1)^7, and w is that bound's bit length.

    Memory grows with the columns requested, up to the 17 * 16 p^3 of a
    full slice; no slot is allocated ahead.  A filled column is one flat
    int tuple (m, c0, c1, c2, c3, m', ...); the inner levels of its
    recursion are the packed dicts of ``_cross``.  Measured with
    tracemalloc, a full p=5 slice (the 14,000 columns that h1 reads over
    all 125 lambda) holds 4.6 MB and a full p=7 slice 11.7 MB; three points
    at p=31 or p=101 hold 4.3 MB, and a full p=31 slice would hold some 8M
    columns, which is why ``compute_point`` keeps slices to p <= 7.
    """

    _cross = VermaModule._cross  # the one crossing recursion, on packed lanes

    def __init__(self, algebra: SuperAlgebra, chi):
        p = algebra.p
        self.algebra = algebra
        self.p = p
        self.chi = tuple(c % p for c in chi)
        self.lane_bits = (27 * (p - 1) ** 7).bit_length()
        # modules at lambda = 0, e1, e2, e3, which straighten the y-tails
        self._references = tuple(
            VermaModule(algebra, lam, chi)
            for lam in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        self._columns: dict[tuple[int, int], tuple[int, ...]] = {}
        # (generator, level, remaining f-exponents, theta code) -> packed lanes
        self._crossings: dict[tuple, dict[int, int]] = {}

    def module(self, lam) -> VermaModule:
        """The module with this slice's algebra and chi at highest weight lam."""
        return VermaModule(self.algebra, lam, self.chi, self)

    def column(self, g: int, n: int) -> tuple[int, ...]:
        """The affine column of g * n, flat: (m, c0, c1, c2, c3, m', ...)."""
        out = self._columns.get((g, n))
        if out is None:
            p, w = self.p, self.lane_bits
            mask = (1 << w) - 1
            i1, i2, i3, code = decode(n, p)
            flat: list[int] = []
            for m, x in self._cross(g, 0, (i1, i2, i3), code).items():
                lanes = [(x >> j * w & mask) % p for j in range(4)]
                if any(lanes):
                    flat += [m, *lanes]
            out = self._columns[g, n] = tuple(flat)
        return out

    def _tail(self, g: int, code: int) -> dict[int, int]:
        """The packed affine coordinates of g y^code v."""
        word = [g, *Y_WORDS[code]]
        base, *units = (m.normal_form(word) for m in self._references)
        p, w = self.p, self.lane_bits
        out: dict[int, int] = {}
        for n in set(base).union(*units):
            c0 = base.get(n, 0)
            lanes = ((u.get(n, 0) - c0) % p << j * w for j, u in enumerate(units, 1))
            out[n] = c0 + sum(lanes)
        return out


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
