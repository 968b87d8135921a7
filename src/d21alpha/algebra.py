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

from dataclasses import dataclass

import numpy as np

from .field import is_prime

# Fixed 17-slot enumeration.  All dense per-generator data uses this order.
GENERATOR_NAMES = (
    "h1", "h2", "h3", "e1", "e2", "e3", "f1", "f2", "f3",
    "x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4",
)
GENERATOR_INDEX = {name: i for i, name in enumerate(GENERATOR_NAMES)}

H1, H2, H3, E1, E2, E3, F1, F2, F3 = range(9)
X1, X2, X3, X4, Y1, Y2, Y3, Y4 = range(9, 17)

EVEN, ODD = 0, 1
PARITY = (0,) * 9 + (1,) * 8
EVEN_GENERATORS = tuple(range(9))
ODD_GENERATORS = tuple(range(9, 17))


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


class AlgebraElement:
    """Dense coefficient vector over the 17 generators."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "SuperAlgebra", coeffs):
        p = algebra.p
        self.algebra = algebra
        self.coeffs = tuple(c % p for c in coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        p = self.algebra.p
        return AlgebraElement(
            self.algebra, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        p = self.algebra.p
        return AlgebraElement(
            self.algebra, [(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, c: int) -> "AlgebraElement":
        p = self.algebra.p
        return AlgebraElement(self.algebra, [a * c % p for a in self.coeffs])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, c in enumerate(self.coeffs) if c)

    def parity(self) -> int | None:
        """0 or 1 for a parity-homogeneous element, None if mixed or zero."""
        pars = {PARITY[g] for g in self.support()}
        if len(pars) == 1:
            return pars.pop()
        return None

    def items(self):
        return ((g, c) for g, c in enumerate(self.coeffs) if c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.p == other.algebra.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*{GENERATOR_NAMES[g]}" for g, c in self.items()]
        return " + ".join(terms) if terms else "0"


class SuperAlgebra:
    """D(2,1;alpha) with its bracket tensor, weights and p-mapping.

    Immutable after construction; safe to share across threads/processes.
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

    def bracket_gen(self, a: int, b: int) -> AlgebraElement:
        """[a, b] for two generators, as an element."""
        coeffs = [0] * 17
        for g, c in self.bracket_items[a][b]:
            coeffs[g] = c
        return AlgebraElement(self, coeffs)

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """Bilinear extension of the generator bracket."""
        for operand in (x, y):
            if operand.algebra.p != self.p or operand.algebra.alpha != self.alpha:
                raise ValueError("operands belong to a different algebra")
        p = self.p
        coeffs = [0] * 17
        for a, ca in x.items():
            row = self.bracket_items[a]
            for b, cb in y.items():
                cab = ca * cb
                for g, c in row[b]:
                    coeffs[g] = (coeffs[g] + cab * c) % p
        return AlgebraElement(self, coeffs)

    def element(self, coeffs: dict[int | str, int]) -> AlgebraElement:
        dense = [0] * 17
        for key, c in coeffs.items():
            g = GENERATOR_INDEX[key] if isinstance(key, str) else key
            dense[g] = c
        return AlgebraElement(self, dense)

    def generator(self, g: int | str) -> AlgebraElement:
        if isinstance(g, str):
            g = GENERATOR_INDEX[g]
        return self.element({g: 1})

    def pmap(self, g: int | str) -> AlgebraElement:
        """p-th power map on even generators: h_i -> h_i, e_i, f_i -> 0."""
        if isinstance(g, str):
            g = GENERATOR_INDEX[g]
        if PARITY[g] == ODD:
            raise ValueError(
                f"p-map is defined on the even part only, got {GENERATOR_NAMES[g]}"
            )
        if g <= H3:
            return self.generator(g)
        return self.element({})

    def weight_of(self, g: int | str) -> tuple[int, int, int]:
        if isinstance(g, str):
            g = GENERATOR_INDEX[g]
        return self.weights[g]

    def ad_matrix(self, g: int) -> np.ndarray:
        """Matrix of ad(g) on the 17-dimensional adjoint representation."""
        m = np.zeros((17, 17), dtype=np.int64)
        for b in range(17):
            for out, c in self.bracket_items[g][b]:
                m[out, b] = c
        return m

    # -- validation ---------------------------------------------------------

    def check_axioms(self) -> list[AxiomViolation]:
        """Exhaustive axiom sweep; an empty list certifies the tables.

        Checks super-antisymmetry on all ordered pairs, the super-Jacobi
        identity on all 17^3 triples, weight compatibility of the bracket,
        and ad(a^[p]) = ad(a)^p for every even generator.
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
        for a in range(17):
            ea = self.generator(a)
            for b in range(17):
                eb = self.generator(b)
                bc_ready = [self.bracket_gen(b, c) for c in range(17)]
                for c in range(17):
                    ec = self.generator(c)
                    s1 = -1 if PARITY[a] and PARITY[c] else 1
                    s2 = -1 if PARITY[b] and PARITY[a] else 1
                    s3 = -1 if PARITY[c] and PARITY[b] else 1
                    acc = (
                        self.bracket(ea, bc_ready[c]).scale(s1)
                        + self.bracket(eb, self.bracket_gen(c, a)).scale(s2)
                        + self.bracket(ec, self.bracket_gen(a, b)).scale(s3)
                    )
                    if not acc.is_zero():
                        out.append(
                            AxiomViolation(
                                "jacobi",
                                (names[a], names[b], names[c]),
                                f"defect {acc!r}",
                            )
                        )
        for g in EVEN_GENERATORS:
            ad = self.ad_matrix(g)
            adp = np.eye(17, dtype=np.int64)
            for _ in range(p):
                adp = adp @ ad % p
            target = self.ad_matrix(g) if g <= H3 else np.zeros((17, 17), np.int64)
            if not (adp == target).all():
                out.append(
                    AxiomViolation(
                        "restrictedness",
                        (names[g],),
                        "ad(g)^p differs from ad(g^[p])",
                    )
                )
        return out

    def with_perturbed_bracket(
        self, a: int | str, b: int | str, g: int | str, delta: int
    ) -> "SuperAlgebra":
        """Copy with [a,b] perturbed by delta*g (antisymmetry-closed).

        Validation helper: a perturbed table must trip check_axioms.
        """
        if isinstance(a, str):
            a = GENERATOR_INDEX[a]
        if isinstance(b, str):
            b = GENERATOR_INDEX[b]
        if isinstance(g, str):
            g = GENERATOR_INDEX[g]
        p = self.p
        clone = SuperAlgebra(p, self.alpha)
        rows = [[dict(cell) for cell in row] for row in clone.bracket_items]
        entry = dict(clone.bracket_items[a][b])
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


def build_algebra(p: int, alpha: int) -> SuperAlgebra:
    """Construct D(2,1;alpha) over F_p; alpha must avoid 0 and -1 mod p."""
    return SuperAlgebra(p, alpha)
