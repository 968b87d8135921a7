"""Exact linear algebra over F_p: RREF, rank, kernels, residues.

One elimination, `rref`, serves every caller.  It reduces its input mod p
once and then, at each pivot (r, c), updates only the rows that are nonzero
in column c, and only their columns from c on: a row that is 0 in column c
does not change, and the pivot row is 0 left of c.  Every update is reduced
mod p, so every stored entry is < p and every product < p^2, which keeps
the loop exact in int64 for p < 3·10^9.  Kernels are read off the RREF
(the graded derivation systems); a subspace is its RREF array, and
`reduce` takes residues modulo it.  `mod` is the one mod-p reduction of a
dense array or a scipy sparse matrix (the axiom checks' products, the
oracle's systems).  The rank of a sparse system (the ungraded oracle) is read
from its CSR matrix mod p: it splits into column-connected components, and
each is eliminated densely.  All arithmetic is integer arithmetic mod p, with
no floats; results are canonical, so rank and kernel bases do not depend on
row order.
"""
from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    R = np.array(mat, dtype=np.int64) % p
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), p - 2, p) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        R[others, c:] = (R[others, c:] - np.outer(R[others, c], R[r, c:])) % p
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def _kernel_from_rref(
    E: np.ndarray, pivots: list[int], cols: int, p: int
) -> np.ndarray:
    """Basis of {x : Ex = 0}, one row per free column of the RREF E."""
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, np.asarray(pivots, dtype=np.intp)] = (-E[:, free] % p).T
    return basis


def reduce(E: np.ndarray, V, p: int) -> np.ndarray:
    """Residues of the vectors V (rows) modulo the row space of the RREF E.

    Each row of E is 0 at every other row's pivot, so subtracting every row
    at once, scaled by the entry of V at its pivot, leaves V 0 at every
    pivot; a residue is 0 exactly when the vector lies in the row space.
    """
    V = np.asarray(V, dtype=np.int64) % p
    pivots = np.argmax(E != 0, axis=1)
    return (V - V[..., pivots] @ E) % p


def mod(m, p: int):
    """m reduced mod p: a new array, or a new CSR matrix with no stored zeros.

    A COO matrix's duplicate entries are summed by the conversion to CSR,
    before the reduction.
    """
    if isinstance(m, np.ndarray):
        return m % p
    m = m.tocsr(copy=True)
    m.data %= p
    m.eliminate_zeros()
    return m


class SparseMatrix:
    """A scipy sparse matrix over F_p, held as CSR mod p with no stored zeros."""

    def __init__(self, mat, p: int):
        self.p = p
        self.csr = mod(mat, p)
        self.shape = self.csr.shape

    def column_components(self):
        """Groups (row_ids, col_ids) of the column-connectivity components.

        Two columns are connected when some row has nonzero entries in both.
        Columns with no entries form singleton components with no rows.
        """
        # imported here: csgraph pulls in scipy.linalg, which only the oracle needs
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        nr, nc = self.shape
        csr = self.csr
        indptr, indices = csr.indptr, csr.indices
        row_nnz = np.diff(indptr)
        nonempty = np.nonzero(row_nnz)[0]
        first_col = indices[indptr[nonempty]]
        # star graph per row: every column of the row points at its first one
        heads = np.repeat(first_col, row_nnz[nonempty])
        graph = sp.coo_matrix(
            (np.ones(len(indices), dtype=np.int8), (indices, heads)),
            shape=(nc, nc),
        )
        ncomp, labels = connected_components(graph, directed=False)
        row_label = np.full(nr, -1, dtype=np.int64)
        row_label[nonempty] = labels[first_col]
        comps = []
        for comp in range(ncomp):
            cols = np.nonzero(labels == comp)[0]
            rows = np.nonzero(row_label == comp)[0]
            comps.append((rows, cols))
        return comps


def rank(M, p: int | None = None) -> int:
    """Exact rank over F_p."""
    if isinstance(M, np.ndarray):
        if p is None:
            raise ValueError("p is required for a dense array")
        return len(rref(M, p)[1])
    total = 0
    for rows, cols in M.column_components():
        if len(rows) == 0:
            continue
        total += len(rref(M.csr[rows][:, cols].toarray(), M.p)[1])
    return total


def kernel_basis(M: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : Mx = 0} for a dense matrix M, as an RREF array."""
    M = np.atleast_2d(np.asarray(M, dtype=np.int64))
    cols = M.shape[1]
    R, pivots = rref(M, p)
    return rref(_kernel_from_rref(R, pivots, cols, p), p)[0]
