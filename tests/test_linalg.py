import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from d21alpha import linalg
from d21alpha.algebra import build_algebra
from d21alpha.cohomology import GradedLayout
from d21alpha.enveloping import VermaModule
from d21alpha.linalg import SparseMatrix, kernel_basis, mod, rank, reduce, rref
from helpers import whole_identity


def brute_force_kernel_dim(mat: np.ndarray, p: int) -> int:
    """Count solutions of Mx = 0 by enumeration (tiny systems only)."""
    cols = mat.shape[1]
    count = 0
    for v in range(p**cols):
        x = np.array([(v // p**i) % p for i in range(cols)], dtype=np.int64)
        if not (mat @ x % p).any():
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_kernel_of_zero_and_identity():
    p = 5
    zero = np.zeros((3, 3), dtype=np.int64)
    assert (kernel_basis(zero, p) == np.eye(3, dtype=np.int64)).all()
    assert kernel_basis(np.eye(3, dtype=np.int64), p).shape == (0, 3)


def test_kernel_example_p5():
    p = 5
    mat = np.array([[1, 2], [2, 4]], dtype=np.int64)
    ker = kernel_basis(mat, p)
    assert len(ker) == brute_force_kernel_dim(mat, p) == 1
    # (3, 1) solves x + 2y = 0; the canonical form of its span
    assert ker.tolist() == [[1, 2]] == rref(np.array([[3, 1]]), p)[0].tolist()
    assert not reduce(ker, [3, 1], p).any()


def test_rank_examples():
    p = 5
    assert rank(np.eye(4, dtype=np.int64), p) == 4
    assert rank(np.zeros((3, 7), dtype=np.int64), p) == 0
    assert rank(np.array([[1, 2], [2, 4]]), p) == 1


def test_rank_plus_nullity():
    rng = np.random.default_rng(3)
    p = 5
    for _ in range(10):
        mat = rng.integers(0, p, size=(8, 11))
        assert rank(mat, p) + len(kernel_basis(mat, p)) == 11


def test_rank_equals_transpose_rank_on_random_sparse():
    rng = np.random.default_rng(17)
    p = 5
    for _ in range(5):
        mat = rng.integers(0, p, size=(50, 80)) * (rng.random((50, 80)) < 0.06)
        assert rank(mat.astype(np.int64), p) == rank(mat.T.astype(np.int64), p)


def test_row_permutation_invariance():
    rng = np.random.default_rng(23)
    p = 7
    mat = rng.integers(0, p, size=(12, 9))
    ker = kernel_basis(mat, p)
    r = rank(mat, p)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(12)
        shuffled = mat[perm]
        assert rank(shuffled, p) == r
        assert np.array_equal(kernel_basis(shuffled, p), ker)


def test_rref_is_idempotent_and_canonical():
    rng = np.random.default_rng(5)
    p = 5
    mat = rng.integers(0, p, size=(6, 8))
    R, piv = rref(mat, p)
    R2, piv2 = rref(R, p)
    assert piv == piv2
    assert (R == R2).all()


def test_subspace_reduce_and_membership():
    p = 5
    U = rref(np.array([[1, 0, 2], [0, 1, 3]]), p)[0]
    assert not reduce(U, [1, 1, 0], p).any()
    assert reduce(U, [0, 0, 1], p).any()
    assert not reduce(U, [2, 3, 3], p).any()  # 2*(1,0,2) + 3*(0,1,3) mod 5
    line = rref(np.array([[1, 1, 0]]), p)[0]
    assert not reduce(U, line, p).any()
    assert reduce(line, U, p).any()
    assert not reduce(np.zeros((0, 3), dtype=np.int64), [[0, 0, 0]], p).any()


def _reduce_by_rows(E, vec, p):
    """Residue of vec modulo the RREF rows of E, one row at a time."""
    v = np.asarray(vec, dtype=np.int64) % p
    for row in E:
        c = int(v[int(np.nonzero(row)[0][0])])
        if c:
            v = (v - c * row) % p
    return v


@pytest.mark.parametrize("p", [5, 7, 101])
def test_reduce_equals_the_row_by_row_loop(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        rows, cols = rng.integers(1, 12), rng.integers(1, 40)
        E = rref(rng.integers(0, p, size=(rows, cols)), p)[0]
        V = rng.integers(-2 * p, 2 * p, size=(6, cols))
        expected = np.array([_reduce_by_rows(E, v, p) for v in V])
        assert np.array_equal(reduce(E, V, p), expected)
        assert np.array_equal(reduce(E, V[0], p), expected[0])


def _coo(shape, entries, p):
    """SparseMatrix of (row, col, value) entries, duplicates summed."""
    r, c, v = (np.array(x, dtype=np.int64) for x in zip(*entries))
    return SparseMatrix(sp.coo_matrix((v, (r, c)), shape=shape), p)


def test_mod_agrees_on_dense_csr_and_coo():
    p = 5
    # duplicates (3 + 2 and 4 + 6), negative entries, entries >= p, zeros
    r = [0, 0, 1, 1, 2, 2, 2, 3, 3]
    c = [0, 0, 1, 2, 0, 3, 3, 1, 2]
    v = [3, 2, -1, 12, 10, 4, 6, 0, -7]
    dense = np.zeros((4, 4), dtype=np.int64)
    np.add.at(dense, (r, c), v)
    expected = dense % p
    coo = sp.coo_matrix((np.array(v, dtype=np.int64), (r, c)), shape=(4, 4))
    csr = sp.csr_matrix(dense)
    csr_zero = csr.copy()
    csr_zero.data[0] = 0  # an explicit stored zero in place of dense[0, 0]
    inputs = [dense, coo, csr, csr_zero]
    before = [m.copy() for m in inputs]
    assert np.array_equal(mod(dense, p), expected)
    for m in (coo, csr):
        out = mod(m, p)
        assert out.format == "csr"
        assert np.array_equal(out.toarray(), expected)
        assert out.nnz == np.count_nonzero(expected)
        assert (out.data != 0).all()
        assert (0 <= out.data).all() and (out.data < p).all()
    out = mod(csr_zero, p)
    assert out.nnz == np.count_nonzero(expected) and (out.data != 0).all()
    # the inputs are untouched
    assert np.array_equal(inputs[0], before[0])
    for m, old in zip(inputs[1:], before[1:]):
        assert m.format == old.format
        assert np.array_equal(m.toarray(), old.toarray()) and m.nnz == old.nnz


def test_sparse_matrix_canonicalization():
    p = 5
    m = _coo((3, 3), [(0, 0, 3), (0, 0, 2), (1, 1, 5), (2, 2, 1)], p)
    # duplicates coalesce (3+2=0 mod 5) and explicit zeros vanish
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[2, 2] = 1
    assert (m.csr.toarray() == expected).all()
    assert m.csr.nnz == 1


def _random_block_sparse(rng, p, blocks, rows_per, cols_per):
    """Block-diagonal-ish sparse matrix exercising the component splitter."""
    entries = []
    for b in range(blocks):
        block = rng.integers(0, p, size=(rows_per, cols_per))
        r, c = np.nonzero(block)
        for i, j in zip(r, c):
            entries.append((b * rows_per + int(i), b * cols_per + int(j),
                            int(block[i, j])))
    return _coo((blocks * rows_per, blocks * cols_per), entries, p)


def test_sparse_rank_matches_dense_on_components():
    rng = np.random.default_rng(41)
    p = 5
    m = _random_block_sparse(rng, p, blocks=60, rows_per=11, cols_per=10)
    dense_rank = len(rref(m.csr.toarray(), p)[1])
    assert rank(m) == dense_rank


def test_isolated_columns_count_toward_kernel():
    p = 5
    # 598 columns have no rows and form singleton components
    m = _coo((2, 600), [(0, 0, 1), (1, 1, 1)], p)
    assert m.shape[1] - rank(m) == 598
    ker = kernel_basis(m.csr.toarray()[:, :4], p)
    assert len(ker) == 2
    assert not reduce(ker, [[0, 0, 1, 0], [0, 0, 0, 1]], p).any()


def test_column_components_structure():
    p = 5
    m = _coo((3, 6), [(0, 0, 1), (0, 2, 2), (1, 3, 1), (2, 3, 4)], p)
    comps = m.column_components()
    groups = sorted(tuple(sorted(cols.tolist())) for _, cols in comps)
    assert groups == [(0, 2), (1,), (3,), (4,), (5,)]


def _rref_reference(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF by a full-height update per pivot, the slow oracle for `rref`."""
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


def _same_rref(mat, p):
    E, piv = rref(mat, p)
    E0, piv0 = _rref_reference(mat, p)
    return piv == piv0 and E.shape == E0.shape and (E == E0).all()


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([5, 7, 31, 101]),
    shape=st.sampled_from(["tall", "square", "wide"]),
    cols=st.integers(1, 30),
    extra=st.integers(0, 60),
    rank_kind=st.sampled_from(["zero", "deficient", "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_equals_the_reference(p, shape, cols, extra, rank_kind, seed):
    rng = np.random.default_rng(seed)
    rows = {"tall": cols + 1 + extra, "square": cols,
            "wide": 1 + extra % max(cols - 1, 1)}[shape]
    k = min(rows, cols)
    r = {"zero": 0, "deficient": int(rng.integers(0, k)), "full": k}[rank_kind]
    mat = rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols)) % p
    # sparsify the rows, as the derivation systems are sparse
    mat[rng.random(rows) < 0.3] = 0
    if rank_kind == "full":
        mat[:k, :k] = np.eye(k, dtype=np.int64)
    # entries outside [0, p) are reduced first
    mat += p * rng.integers(-2, 3, size=mat.shape)
    assert _same_rref(mat, p)
    if rank_kind == "full":
        assert rref(mat, p)[1] == list(range(k))


@pytest.mark.parametrize("p, seed", [(7, 11), (5, 13)])
def test_rref_equals_the_reference_on_rank_20_matrices(p, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, p, size=(120, 20)) @ rng.integers(0, p, size=(20, 30)) % p
    assert _same_rref(mat, p)
    assert len(rref(mat, p)[1]) == 20
    assert len(kernel_basis(mat, p)) == 10


@pytest.mark.parametrize("p, alpha, lam, chi", [
    (5, 2, (2, 3, 3), (0, 0, 0)),
    (7, 3, (2, 5, 5), (0, 0, 0)),
    (13, 2, (1, 2, 3), (1, 0, 0)),
    (31, 5, (1, 2, 3), (0, 0, 0)),
])
def test_rref_equals_the_reference_on_graded_systems(p, alpha, lam, chi):
    module = VermaModule(build_algebra(p, alpha), lam, chi)
    for parity in (0, 1):
        equations = GradedLayout(module, parity).equations()
        rows = whole_identity(module, parity).reshape(-1, 17 * 8)
        # the 184-364 generator-pair rows in 32 unknowns that h1 solves, and
        # the ~1,000 nonzero rows of the whole identity in 136: the tall shape
        # of the oracle's components
        for system in (equations, rows[rows.any(axis=1)]):
            assert _same_rref(system, p)
            E0, piv0 = _rref_reference(system, p)
            reference_kernel = rref(
                linalg._kernel_from_rref(E0, piv0, system.shape[1], p), p
            )[0]
            assert np.array_equal(kernel_basis(system, p), reference_kernel)
            assert not (system @ reference_kernel.T % p).any()


# 2^31 - 1, and the largest prime p with (p - 1)^2 < 2^63: every product of
# two reduced entries still fits in int64
@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_rref_is_exact_at_the_largest_p(p):
    mat = np.zeros((40, 3), dtype=np.int64)
    mat[:3] = [[1, 2, 3], [2, 4, 6], [0, 0, p - 1]]
    E, piv = rref(mat, p)
    assert piv == [0, 2]
    assert E.tolist() == [[1, 2, 0], [0, 0, 1]]
    # a random wide matrix, checked in exact Python integers
    rng = np.random.default_rng(7)
    mat = rng.integers(0, p, size=(6, 9))
    ker = kernel_basis(mat, p)
    assert len(ker) == 3
    assert not (mat.astype(object) @ ker.T.astype(object) % p).any()


# the budget of pivots between full reductions, floor(2^63 / (p-1)^2), is 2
# at p = 2^31 - 1 and 1 at p = 3037000493; at p = 101 it is never reached
@pytest.mark.parametrize("p, rows, cols", [
    (2**31 - 1, 60, 20), (3037000493, 60, 20), (101, 160, 120),
])
def test_rref_equals_the_reference_past_the_reduction_budget(p, rows, cols):
    rng = np.random.default_rng(cols)
    for _ in range(3):
        mat = rng.integers(0, p, size=(rows, cols))
        E, piv = rref(mat, p)
        assert piv == list(range(cols))
        assert _same_rref(mat, p)
        assert (0 <= E).all() and (E < p).all()
    # rank-deficient: columns past the rank pass through the loop unpivoted
    mat = rng.integers(0, p, size=(rows, cols // 2)) @ np.eye(
        cols // 2, cols, dtype=np.int64
    )
    mat[:, cols // 2:] = mat[:, : cols - cols // 2] * 3 % p
    assert _same_rref(mat, p)


def test_components_and_rank_on_scrambled_input():
    """Permuted rows and columns, empty rows and columns, duplicate entries."""
    rng = np.random.default_rng(43)
    p = 7
    base = _random_block_sparse(rng, p, blocks=40, rows_per=9, cols_per=8).csr
    nr, nc = base.shape[0] + 25, base.shape[1] + 30
    row_of = rng.permutation(nr)[: base.shape[0]]
    col_of = rng.permutation(nc)[: base.shape[1]]
    coo = base.tocoo()
    # each entry v is stored as two duplicates that sum to v
    half = rng.integers(0, p, size=coo.nnz)
    scrambled = sp.coo_matrix(
        (np.concatenate([half, coo.data - half]),
         (np.tile(row_of[coo.row], 2), np.tile(col_of[coo.col], 2))),
        shape=(nr, nc),
    ).tocsr()
    m = SparseMatrix(scrambled, p)
    dense = m.csr.toarray()
    assert np.array_equal(dense, scrambled.toarray() % p)

    # a per-label loop: scipy numbers components by their smallest column
    pattern = sp.csr_matrix((dense != 0).astype(np.int64))
    ncomp, labels = connected_components(pattern.T @ pattern, directed=False)
    row_label = np.full(nr, -1, dtype=np.int64)
    for i in range(nr):
        if dense[i].any():
            row_label[i] = labels[np.flatnonzero(dense[i])[0]]
    expected = [
        (np.nonzero(row_label == comp)[0], np.nonzero(labels == comp)[0])
        for comp in range(ncomp)
    ]
    comps = m.column_components()
    assert len(comps) == len(expected) > 40
    for (rows, cols), (rows0, cols0) in zip(comps, expected):
        assert rows.dtype == rows0.dtype and cols.dtype == cols0.dtype
        assert np.array_equal(rows, rows0) and np.array_equal(cols, cols0)
    assert rank(m) == len(rref(dense, p)[1])
