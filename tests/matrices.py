"""Conversions between dense arrays, scipy matrices and the package's
CsrMatrix, and count matrix files spelled out byte by byte, for tests.
scipy is a test dependency only: an oracle, and a short way to write a
matrix down."""

import struct

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


def mat_bytes(shape, indptr, indices, counts, nnz=None, payload=None) -> bytes:
    """An `apisentry-matrix v2` file spelled out with struct: its header
    claims nnz (len(indices) if None) and payload bytes (the arrays' size
    if None), then indptr, indices and counts follow as little-endian int64."""
    values = [*indptr, *indices, *counts]
    body = struct.pack(f"<{len(values)}q", *values)
    nnz = len(indices) if nnz is None else nnz
    payload = len(body) if payload is None else payload
    head = f"apisentry-matrix v2\nshape {shape[0]} {shape[1]}\nnnz {nnz}\npayload {payload}\n"
    return head.encode() + body
