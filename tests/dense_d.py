"""Dense oracle of the four-row operator ``D``: every block of ``D``
written out as one matrix under a slot map, for the tests of
``spectral`` and ``series`` to compare the operator against."""

from dataclasses import dataclass

import numpy as np

from freerep.twin import pair_block


@dataclass
class DenseD:
    """Dense block matrix with its slot index.

    ``slots`` maps ``(i, c)`` for block-row ``i ∈ 1..4`` and letter ``c``
    to ``(offset, (rows, cols))`` of the vectorized slot; ``side`` is the
    full dimension.  ``package`` is the twin package it was built from.
    """

    matrix: np.ndarray
    slots: dict
    side: int
    package: object

    def rows(self, i):
        """Slice of block row ``i`` in ``matrix``, which stores the block
        rows in order, each from the slot of its letter 0."""
        stop = self.slots[(i + 1, 0)][0] if i < 4 else self.side
        return slice(self.slots[(i, 0)][0], stop)

    def block(self, i, j):
        """View of the ``(i, j)`` block of ``matrix``."""
        return self.matrix[self.rows(i), self.rows(j)]

    def embed(self, i, tuple_of_mats):
        """Vector with ``tuple_of_mats`` in block-row ``i``, zeros elsewhere."""
        v = np.zeros(self.side, dtype=complex)
        for c, m in enumerate(tuple_of_mats):
            off, shape = self.slots[(i, c)]
            if m.shape != shape:
                raise ValueError("slot shape mismatch at (%d, %d)" % (i, c))
            v[off:off + shape[0] * shape[1]] = m.ravel()
        return v

    def extract(self, i, vec):
        """Per-letter matrices of block-row ``i`` from a full vector."""
        out = []
        c = 0
        while (i, c) in self.slots:
            off, shape = self.slots[(i, c)]
            out.append(vec[off:off + shape[0] * shape[1]].reshape(shape))
            c += 1
        return tuple(out)


def _slot_shapes(dims, c):
    n, nh = dims[c], dims[c ^ 1]
    return {1: (nh, nh), 2: (n, nh), 3: (nh, n), 4: (n, n)}


def _slot_index(slots, dims, c):
    """Position in ``D`` of each row-major entry of ``S_c = [[S⁴, S²],
    [S³, S¹]]``, whose first ``d_c`` rows and columns are on ``V_c``."""
    n = dims[c]
    index = np.empty((n + dims[c ^ 1],) * 2, dtype=int)
    for i, rows, cols in ((4, slice(None, n), slice(None, n)),
                          (2, slice(None, n), slice(n, None)),
                          (3, slice(n, None), slice(None, n)),
                          (1, slice(n, None), slice(n, None))):
        off, shape = slots[(i, c)]
        index[rows, cols] = off + np.arange(shape[0] * shape[1]).reshape(shape)
    return index.ravel()


def dense_D(pkg):
    """``D`` as one matrix: slot ``(i, c)`` holds ``S^i`` of ``S_c``, and
    the block of letters ``(a, b)`` is ``S_b ↦ X_ab S_b X_ab†`` for the
    pair block ``X_ab``, realized as ``kron(X_ab, conj X_ab)``."""
    nsys = pkg.original
    dims = nsys.dims
    size = nsys.alphabet.size
    slots = {}
    off = 0
    for i in (1, 2, 3, 4):
        for c in range(size):
            shape = _slot_shapes(dims, c)[i]
            slots[(i, c)] = (off, shape)
            off += shape[0] * shape[1]
    index = [_slot_index(slots, dims, c) for c in range(size)]
    mat = np.zeros((off, off), dtype=complex)
    for a in range(size):
        for b in range(size):
            if a != b ^ 1:
                x = pair_block(nsys, pkg.E, a, b)
                mat[np.ix_(index[a], index[b])] += np.kron(x, x.conj())
    return DenseD(matrix=mat, slots=slots, side=off, package=pkg)
