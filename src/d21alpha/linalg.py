"""Exact linear algebra over F_p: RREF, rank, kernels, residues.

One elimination kernel, `rref`, serves every caller.  A tall matrix M (more
than twice as many rows as its sketch height cols + SKETCH_EXTRA) is first
compressed: C = R·M mod p for a random R of shape (cols + SKETCH_EXTRA) x
rows over F_p, seeded from the shape, p and the draw number, and formed in
int64 through a sparse product.  ker C contains ker M, so when M·K = 0 for
a basis K of ker C the two kernels, hence the two row spaces, hence the two
RREFs are equal, and RREF(C) is returned (Las Vegas preconditioning:
Kaltofen and Saunders, "On Wiedemann's method of solving sparse linear
systems", AAECC 1991).  A failed check redraws R; after MAX_DRAWS draws the
plain per-pivot elimination runs on M itself.  Kernels are read off the
RREF (the graded derivation systems); a subspace is its RREF array, and
`reduce` takes residues modulo it.  The rank of a sparse system (the
ungraded oracle) splits it into column-connected components and eliminates
each component densely.  All arithmetic is integer arithmetic mod p, with
no floats; results are canonical, so rank and kernel bases do not depend on
row order or on the sketch.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# sketch height is cols + SKETCH_EXTRA; a matrix is tall, and compressed,
# when it has more than twice that many rows
SKETCH_EXTRA = 8
MAX_DRAWS = 3


def _rref_plain(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF by a full-height update per pivot (the fallback and test oracle)."""
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
        R[r] = R[r] * pow(int(R[r, c]), p - 2, p) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
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


def _sketch(rows: int, cols: int, p: int, attempt: int) -> np.ndarray:
    """R transposed: rows x (cols + SKETCH_EXTRA), uniform over F_p."""
    rng = np.random.default_rng((rows, cols, p, attempt))
    return rng.integers(0, p, size=(rows, cols + SKETCH_EXTRA), dtype=np.int64)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    rows, cols = np.shape(mat)
    # compress only while every entry of R·M (< rows·p²) fits in int64
    if rows > 2 * (cols + SKETCH_EXTRA) and rows * (p - 1) ** 2 < 2**63:
        sparse = sp.csr_matrix(np.asarray(mat, dtype=np.int64) % p)
        for attempt in range(MAX_DRAWS):
            C = (sparse.T @ _sketch(rows, cols, p, attempt)).T
            E, pivots = _rref_plain(C, p)
            K = _kernel_from_rref(E, pivots, cols, p)
            if not (sparse @ K.T % p).any():
                return E, pivots
    return _rref_plain(mat, p)


def reduce(E: np.ndarray, V, p: int) -> np.ndarray:
    """Residues of the vectors V (rows) modulo the row space of the RREF E.

    Each row of E is 0 at every other row's pivot, so subtracting every row
    at once, scaled by the entry of V at its pivot, leaves V 0 at every
    pivot; a residue is 0 exactly when the vector lies in the row space.
    """
    V = np.asarray(V, dtype=np.int64) % p
    pivots = np.argmax(E != 0, axis=1)
    return (V - V[..., pivots] @ E) % p


class SparseMatrix:
    """COO matrix over F_p with canonical entries (coalesced, no zeros)."""

    def __init__(self, rows: int, cols: int, entries, p: int):
        self.shape = (rows, cols)
        self.p = p
        if entries and isinstance(entries[0], tuple):
            r, c, v = (np.array(x, dtype=np.int64) for x in zip(*entries))
        elif entries:
            r, c, v = (np.asarray(x, dtype=np.int64) for x in entries)
        else:
            r = c = v = np.zeros(0, dtype=np.int64)
        m = sp.coo_matrix((v % p, (r, c)), shape=self.shape, dtype=np.int64).tocsr()
        m.sum_duplicates()
        m.data %= p
        m.eliminate_zeros()
        self.csr = m

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.csr.todense(), dtype=np.int64)

    def column_components(self):
        """Groups (row_ids, col_ids) of the column-connectivity components.

        Two columns are connected when some row has nonzero entries in both.
        Columns with no entries form singleton components with no rows.
        """
        # imported here: it pulls in scipy.linalg, which only the oracle needs
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
        sub = np.asarray(M.csr[rows][:, cols].todense(), dtype=np.int64)
        total += len(rref(sub, M.p)[1])
    return total


def kernel_basis(M: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : Mx = 0} for a dense matrix M, as an RREF array."""
    M = np.atleast_2d(np.asarray(M, dtype=np.int64))
    cols = M.shape[1]
    R, pivots = rref(M, p)
    return rref(_kernel_from_rref(R, pivots, cols, p), p)[0]
