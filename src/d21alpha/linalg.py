"""Exact linear algebra over F_p: RREF, rank, kernels, residues.

One elimination, `rref`, serves every caller.  It reduces its input mod p
once and moves no row.  The pivot of column c is the first row, in input
order, that is nonzero in c and has not yet held a pivot; it is marked and
left where it is, and the result is the pivot rows in pivot order, which is
the same canonical RREF that row swaps would give.  At each pivot (i, c) it
updates only the rows that are nonzero in column c, and only their columns
from c on: a row that is 0 in column c does not change, and the pivot row
is 0 left of c.  The updates are not reduced.  Column c is reduced before
its nonzero test and the pivot row before it is scaled, so both factors of
an update lie in [0, p): an entry only goes down, by at most (p-1)^2 per
pivot, and after k pivots it lies in [-k(p-1)^2, p).  The whole matrix is
reduced after every floor(2^63 / (p-1)^2) pivots and once at the end.
That budget is 9·10^14 at p = 101, 2 at p = 2^31 - 1 and 1 at the largest
p with (p-1)^2 < 2^63, so the loop is exact in int64 for p < 3·10^9.  A
row that has held a pivot is still updated at later pivots, like any
other, so the budget counts pivots, not rows.  Kernels are read off the
RREF (the graded derivation systems); a subspace is its RREF array, and
`reduce` takes residues modulo it.  `mod` is the one mod-p reduction of a
dense array or a scipy sparse matrix (the axiom checks' products, the
oracle's systems).  The rank of a sparse system (the ungraded oracle) is read
from its CSR matrix mod p: it splits into column-connected components, and
each is eliminated densely, its block filled straight from the CSR arrays.
All arithmetic is integer arithmetic mod p, with no floats; results are
canonical, so rank and kernel bases do not depend on row order.
"""
from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns).

    No row moves: the pivot rows are read out in pivot order at the end.
    """
    R = np.array(mat, dtype=np.int64) % p
    rows, cols = R.shape
    # pivots between full reductions: each lowers an entry by at most (p-1)^2
    budget = 2**63 // (p - 1) ** 2
    pivots: list[int] = []
    order: list[int] = []  # the pivot rows, in pivot order; they stay in place
    free = np.ones(rows, dtype=bool)
    for c in range(cols):
        if len(pivots) == rows:
            break
        R[:, c] %= p
        nz = np.flatnonzero(R[:, c])
        unused = nz[free[nz]]
        if len(unused) == 0:
            continue
        i = int(unused[0])
        free[i] = False
        R[i, c:] = R[i, c:] % p * pow(int(R[i, c]), p - 2, p) % p
        others = nz[nz != i]
        R[others, c:] -= R[others, c, None] * R[i, c:]
        pivots.append(c)
        order.append(i)
        if len(pivots) % budget == 0:
            R %= p
    return R[order] % p, pivots


def _kernel_from_rref(
    E: np.ndarray, pivots: list[int], cols: int, p: int
) -> np.ndarray:
    """Basis of {x : Ex = 0}, one row per free column of the RREF E."""
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
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

    Duplicate entries, of a COO or a CSR matrix, are summed before the
    reduction.
    """
    if isinstance(m, np.ndarray):
        return m % p
    m = m.tocsr(copy=True)
    m.sum_duplicates()
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

        nc = self.shape[1]
        indptr, indices = self.csr.indptr, self.csr.indices
        row_nnz = np.diff(indptr)
        nonempty = np.nonzero(row_nnz)[0]
        first_col = indices[indptr[nonempty]]
        # star graph per row: every column of the row points at its first one;
        # built in the call, so that it is freed before the sorts below
        ncomp, labels = connected_components(
            sp.coo_matrix(
                (np.ones(len(indices), dtype=np.int8),
                 (indices, np.repeat(first_col, row_nnz[nonempty]))),
                shape=(nc, nc),
            ),
            directed=False,
        )
        row_label = labels[first_col]
        # one stable sort per axis keeps each component's ids ascending
        cols = np.split(np.argsort(labels, kind="stable"),
                        np.cumsum(np.bincount(labels, minlength=ncomp))[:-1])
        rows = np.split(nonempty[np.argsort(row_label, kind="stable")],
                        np.cumsum(np.bincount(row_label, minlength=ncomp))[:-1])
        return list(zip(rows, cols))


def rank(M, p: int | None = None) -> int:
    """Exact rank over F_p."""
    if isinstance(M, np.ndarray):
        if p is None:
            raise ValueError("p is required for a dense array")
        return len(rref(M, p)[1])
    csr = M.csr
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    position = np.empty(M.shape[1], dtype=np.intp)
    total = 0
    for rows, cols in M.column_components():
        if len(rows) == 0:
            continue
        # a component's rows hold entries only in its own columns
        position[cols] = np.arange(len(cols))
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        # where the rows' entries sit in indices and data, row after row
        entries = np.repeat(starts - np.cumsum(counts) + counts, counts)
        entries += np.arange(len(entries))
        block = np.zeros((len(rows), len(cols)), dtype=np.int64)
        block[np.repeat(np.arange(len(rows)), counts),
              position[indices[entries]]] = data[entries]
        total += len(rref(block, M.p)[1])
    return total


def kernel_basis(M: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : Mx = 0} for a dense matrix M, as an RREF array."""
    M = np.atleast_2d(np.asarray(M, dtype=np.int64))
    cols = M.shape[1]
    R, pivots = rref(M, p)
    return rref(_kernel_from_rref(R, pivots, cols, p), p)[0]
