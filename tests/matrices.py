"""Conversions between dense arrays, scipy matrices and the package's
CsrMatrix, for tests. scipy is a test dependency only: an oracle, and a
short way to write a matrix down."""

import numpy as np
from scipy import sparse

from apisentry.ngrams import CsrMatrix


def csr(X) -> CsrMatrix:
    """The CsrMatrix of a dense array or a scipy matrix: zeros of a dense
    array are not stored, repeated entries are summed and each row's
    columns are sorted."""
    m = sparse.csr_matrix(X, dtype=np.float64)
    m.sum_duplicates()
    return CsrMatrix(m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64), m.shape)


def to_scipy(X: CsrMatrix) -> sparse.csr_matrix:
    """The scipy matrix of a CsrMatrix, sharing its arrays."""
    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
