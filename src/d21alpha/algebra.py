"""The restricted Lie superalgebra D(2,1;alpha) over F_p.

The 17-dimensional algebra g = g_0 + g_1 has even part sl(2) x sl(2) x sl(2)
with standard basis {h_i, e_i, f_i | i=1,2,3} and odd part the outer tensor
product of the three natural 2-dimensional modules, with basis

    x1 = w1 (x) w2 (x) w3       y1 = w-1 (x) w2 (x) w3
    x2 = w1 (x) w2 (x) w-3      y2 = w-1 (x) w2 (x) w-3
    x3 = w1 (x) w-2 (x) w3      y3 = w-1 (x) w-2 (x) w3
    x4 = w1 (x) w-2 (x) w-3     y4 = w-1 (x) w-2 (x) w-3

The bracket of two odd elements is the alpha-dependent invariant pairing into
g_0; every generator pair not forced by the defining tables (closed under
super-antisymmetry) brackets to zero.  The p-mapping is h_i -> h_i,
e_i, f_i -> 0 on the even part.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
from .field import is_prime

# Fixed 17-slot enumeration.  All dense per-generator data uses this order.
GENERATOR_NAMES = (
    "h1", "h2", "h3", "e1", "e2", "e3", "f1", "f2", "f3",
    "x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4",
)
GENERATOR_INDEX = {name: i for i, name in enumerate(GENERATOR_NAMES)}

H1, H2, H3, E1, E2, E3, F1, F2, F3 = range(9)
X1, X2, X3, X4, Y1, Y2, Y3, Y4 = range(9, 17)

PARITY = (0,) * 9 + (1,) * 8

GENERATING_SET = (E2, E3, F1, X4)
"""Four generators whose brackets span D(2,1;alpha) for every admissible (p, alpha).

GENERATING_CHAIN reaches the other 13 from them.  Its brackets' coefficients
are 1, 2(1+alpha) (e1), -2 (f2) and -2 alpha (f3), so the only divisors are
2, alpha and 1+alpha: units for every p > 3 and alpha outside {0, -1} mod p.  `GradedLayout.equations` writes the derivation
identity only on the pairs that hold one of these generators, and solves it
in their 32 coordinates.
"""

GENERATING_CHAIN = (
    (X2, E2, X4), (X3, E3, X4), (X1, E2, X3),
    (Y1, F1, X1), (Y2, F1, X2), (Y3, F1, X3), (Y4, F1, X4),
    (E1, X1, X4), (F2, X4, Y3), (F3, X4, Y2),
    (H1, E1, F1), (H2, E2, F2), (H3, E3, F3),
)
"""(g, a, b) steps, in order, that reach each generator outside GENERATING_SET.

[a, b] = c g with c a unit, and a and b lie in GENERATING_SET or are an
earlier step's g.  Every pair {a, b} holds a member of the set.
"""


def generator_weight(g: int) -> tuple[int, int, int]:
    """Weight of a generator as an integer triple (coefficients of eps_i)."""
    if g <= H3:
        return (0, 0, 0)
    if g <= E3:
        w = [0, 0, 0]
        w[g - E1] = 2
        return tuple(w)
    if g <= F3:
        w = [0, 0, 0]
        w[g - F1] = -2
        return tuple(w)
    i = (g - X1) % 4 + 1  # tensor-slot pattern shared by x_i and y_i
    s1 = 1 if g <= X4 else -1
    s2 = 1 if i in (1, 2) else -1
    s3 = 1 if i in (1, 3) else -1
    return (s1, s2, s3)


@dataclass(frozen=True)
class AxiomViolation:
    kind: str  # antisymmetry | jacobi | weight | restrictedness
    generators: tuple[str, ...]
    detail: str


class SuperAlgebra:
    """D(2,1;alpha) with its bracket tensor, weights and p-mapping.

    Immutable after construction (``ad`` and ``crossing_terms`` only
    memoize); safe to share across threads/processes.
    """

    def __init__(self, p: int, alpha: int):
        if not is_prime(p) or p <= 3:
            raise ValueError(f"p must be a prime > 3, got {p}")
        alpha %= p
        if alpha == 0 or alpha == p - 1:
            raise ValueError(f"alpha must avoid 0 and -1 mod p, got {alpha}")
        self.p = p
        self.alpha = alpha
        self.weights = tuple(
            tuple(w % p for w in generator_weight(g)) for g in range(17)
        )
        # bracket[a][b] = tuple of (generator, coefficient) pairs, canonical mod p
        self.bracket_items = self._build_bracket_table()
        self._crossing_terms: dict[tuple[int, int, int], tuple] = {}

    # -- construction -----------------------------------------------------

    def _build_bracket_table(self):
        p, alpha = self.p, self.alpha
        one_plus_a = (1 + alpha) % p
        table: dict[tuple[int, int], dict[int, int]] = {}

        def put(a: int, b: int, value: dict[int, int]):
            entry = {g: c % p for g, c in value.items() if c % p}
            table[(a, b)] = entry
            if a != b:
                # super-antisymmetry: [b,a] = -(-1)^{|a||b|}[a,b]
                sign = 1 if PARITY[a] and PARITY[b] else -1
                table[(b, a)] = {g: sign * c % p for g, c in entry.items()}

        for i in range(3):
            put(E1 + i, F1 + i, {H1 + i: 1})
            put(H1 + i, E1 + i, {E1 + i: 2})
            put(H1 + i, F1 + i, {F1 + i: -2})

        # g_0 acting on g_1: the tensor-product action, slot by slot.
        for base in (X1, Y1):
            for i in range(4):  # k_1..k_4 within the x- or y-family
                k = base + i
                put(H1, X1 + i, {X1 + i: 1})
                put(H1, Y1 + i, {Y1 + i: -1})
                put(E1, Y1 + i, {X1 + i: 1})
                put(F1, X1 + i, {Y1 + i: 1})
                put(H3, k, {k: 1 if i % 2 == 0 else -1})
            for j in (0, 1):
                put(H2, base + j, {base + j: 1})
                put(F2, base + j, {base + j + 2: 1})
            for l in (2, 3):
                put(H2, base + l, {base + l: -1})
                put(E2, base + l, {base + l - 2: 1})
            for s in (1, 3):
                put(E3, base + s, {base + s - 1: 1})
            for t in (0, 2):
                put(F3, base + t, {base + t + 1: 1})

        put(X1, Y2, {E2: -2})
        put(X1, Y3, {E3: -2 * alpha})
        put(X1, Y4, {H1: -one_plus_a, H2: 1, H3: alpha})
        put(X2, Y1, {E2: 2})
        put(X2, Y4, {F3: 2 * alpha})
        put(X2, Y3, {H1: one_plus_a, H2: -1, H3: alpha})
        put(X3, Y1, {E3: 2 * alpha})
        put(X3, Y4, {F2: 2})
        put(X3, Y2, {H1: one_plus_a, H2: 1, H3: -alpha})
        put(X4, Y2, {F3: -2 * alpha})
        put(X4, Y3, {F2: -2})
        put(X4, Y1, {H1: -one_plus_a, H2: -1, H3: -alpha})
        put(Y2, Y3, {F1: 2 * one_plus_a})
        put(Y1, Y4, {F1: -2 * one_plus_a})
        put(X2, X3, {E1: -2 * one_plus_a})
        put(X1, X4, {E1: 2 * one_plus_a})

        return tuple(
            tuple(tuple(sorted(table.get((a, b), {}).items())) for b in range(17))
            for a in range(17)
        )

    # -- operations --------------------------------------------------------

    @functools.cached_property
    def ad(self) -> np.ndarray:
        """The bracket tensor: ad[a, g, b] is the coefficient of g in [a, b].

        Read-only (17, 17, 17) int64, built from ``bracket_items`` on first
        use, so ad[a] is the matrix of ad(a) on the adjoint representation.
        """
        ad = np.zeros((17, 17, 17), dtype=np.int64)
        for a, row in enumerate(self.bracket_items):
            for b, items in enumerate(row):
                for g, c in items:
                    ad[a, g, b] = c
        ad.flags.writeable = False
        return ad

    def crossing_terms(self, g: int, k: int, i: int) -> tuple:
        """The terms of g f^i = sum_j C(i, j) f^(i-j) D^j(g), with f = f_{k+1}.

        D(x) = [x, f]; returns ((i - j, ((h, C(i, j) * coefficient of h in
        D^j(g)), ...)), ...), memoized per algebra under (g, k, i).  ad f is
        nilpotent (ad f^3 = 0), so there are at most three terms, whatever i
        and p are.  Each D^j(g) is a multiple of one generator and each
        coefficient lies in 1..p-1, which bounds ``ActionSlice``'s lanes.
        """
        out = self._crossing_terms.get((g, k, i))
        if out is not None:
            return out
        p, f = self.p, F1 + k
        terms = []
        term = {g: 1}  # D^j(g) as {generator: coefficient}
        for j in range(i + 1):
            scale = comb(i, j) % p
            terms.append((i - j, tuple((h, c * scale % p) for h, c in term.items())))
            nxt: dict[int, int] = {}
            for h, c in term.items():
                for h2, co in self.bracket_items[h][f]:
                    nxt[h2] = (nxt.get(h2, 0) + c * co) % p
            term = {h: c for h, c in nxt.items() if c}
            if not term:
                break
        out = self._crossing_terms[g, k, i] = tuple(terms)
        return out

    # -- validation ---------------------------------------------------------

    def check_axioms(self) -> list[AxiomViolation]:
        """Exhaustive axiom sweep; an empty list certifies the tables.

        Checks super-antisymmetry on all ordered pairs and weight
        compatibility of the bracket, then that ad is a restricted
        representation: given antisymmetry, that is the super-Jacobi identity
        on all 17^3 triples (one column of the defect of each pair) and
        ad(a^[p]) = ad(a)^p for every even generator.
        """
        p = self.p
        out: list[AxiomViolation] = []
        names = GENERATOR_NAMES
        for a in range(17):
            for b in range(17):
                sign = 1 if PARITY[a] and PARITY[b] else -1
                lhs = dict(self.bracket_items[a][b])
                rhs = {g: sign * c % p for g, c in self.bracket_items[b][a]}
                if lhs != rhs:
                    out.append(
                        AxiomViolation(
                            "antisymmetry", (names[a], names[b]), f"{lhs} vs {rhs}"
                        )
                    )
                wab = tuple(
                    (self.weights[a][i] + self.weights[b][i]) % p for i in range(3)
                )
                for g in lhs:
                    if self.weights[g] != wab:
                        out.append(
                            AxiomViolation(
                                "weight",
                                (names[a], names[b]),
                                f"component {names[g]} outside weight {wab}",
                            )
                        )
        for gens, cols in representation_defects(self, self.ad, (0, 0, 0)):
            labels = tuple(names[g] for g in gens)
            if len(gens) == 1:
                out.append(
                    AxiomViolation(
                        "restrictedness", labels, "ad(g)^p differs from ad(g^[p])"
                    )
                )
            else:  # column c of the defect is the super-Jacobi sum of (a, b, c)
                out.extend(
                    AxiomViolation(
                        "jacobi",
                        labels + (names[c],),
                        f"ad([a,b]) differs from the supercommutator on {names[c]}",
                    )
                    for c in cols
                )
        return out

    # -- debug dump ----------------------------------------------------------

    def bracket_table_json(self) -> dict:
        """The nonzero bracket tensor as a JSON-friendly structure."""
        pairs = []
        for a in range(17):
            for b in range(17):
                items = self.bracket_items[a][b]
                if not items:
                    continue
                pairs.append(
                    {
                        "a": GENERATOR_NAMES[a],
                        "b": GENERATOR_NAMES[b],
                        "value": {GENERATOR_NAMES[g]: c for g, c in items},
                    }
                )
        return {"p": self.p, "alpha": self.alpha, "pairs": pairs}


def representation_defects(
    algebra: SuperAlgebra, mats, chi
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Where g -> mats[g] fails to be a restricted representation of algebra.

    mats holds rho(g) for the 17 generators, all numpy arrays or all scipy
    sparse matrices over F_p; chi = (chi(f1), chi(f2), chi(f3)).  Checks the
    super-commutator identity

        sum_g C[a,b,g] rho(g) = rho(a) rho(b) - (-1)^{|a||b|} rho(b) rho(a)

    on all 289 ordered pairs, then restrictedness on the even generators:
    rho(h)^p = rho(h), rho(e)^p = 0 and rho(f_k)^p = chi_k^p * I.  With
    rho = ad and chi = 0 this is the super-Jacobi identity and the p-map of
    the algebra; with rho the action on a module it is the module axioms
    (Kac, "Lie superalgebras", Adv. Math. 26, 1977).

    Returns one (generators, columns) pair per failing identity, in the order
    above: generators is (a, b) or (g,), and columns holds the sorted basis
    indices on which the two sides differ.
    """
    p = algebra.p
    out = []

    def check(gens, defect):
        cols = np.unique(linalg.mod(defect, p).nonzero()[1])
        if cols.size:
            out.append((gens, cols))

    for a in range(17):
        for b in range(17):
            sign = -1 if PARITY[a] and PARITY[b] else 1
            defect = mats[a] @ mats[b] - sign * (mats[b] @ mats[a])
            for g, c in algebra.bracket_items[a][b]:
                defect = defect - c * mats[g]
            check((a, b), defect)
    if isinstance(mats[0], np.ndarray):
        eye = np.eye(mats[0].shape[0], dtype=np.int64)
    else:
        import scipy.sparse as sp

        eye = sp.identity(mats[0].shape[0], dtype=np.int64)
    for g in range(F3 + 1):
        power = mats[g]
        for _ in range(p - 1):
            power = linalg.mod(power @ mats[g], p)
        if g <= H3:
            target = mats[g]
        else:  # e^[p] = 0 and f_k^[p] = chi_k^p
            target = pow(chi[g - F1] if g >= F1 else 0, p, p) * eye
        check((g,), power - target)
    return out


def build_algebra(p: int, alpha: int) -> SuperAlgebra:
    """Construct D(2,1;alpha) over F_p; alpha must avoid 0 and -1 mod p."""
    return SuperAlgebra(p, alpha)
