"""The four-row block matrix, its eigenvalue-1 analysis, the trace
obstruction, the Q tuple, and the symmetry-class decision.

``D`` is the operator of the sphere-sum recursion of
:mod:`freerep.series`, read under a slot map.  Letter ``c`` carries a
matrix ``S_c = [[S⁴, S²], [S³, S¹]]`` on ``V_c ⊕ V̂_c``; block row ``i``
of ``D`` holds the ``S^i`` of every letter, row-major; and letter ``l``
feeds letter ``c`` by ``S ↦ X_cl S X_cl†`` with the pair block ``X_cl``
of :func:`~freerep.twin.pair_block`, realized as ``kron(X, conj(X))``.

``D`` is block upper triangular: below the diagonal and in ``(2, 3)``
its blocks are exactly zero.  Its diagonal blocks are the dual transfer
operators of the twin (``D_11``) and of the system (``D_44``) and a
mutually conjugate pair (``D_22``, ``D_33``), each with eigenvalue 1 at
most once.  The eigenvalue-1 analysis reads that structure:

- ``mult_one`` counts the eigenvalues of the four diagonal blocks within
  ``δ`` of 1, and ``gap`` is the smallest distance to 1 of the others;
  no eigensolve or SVD of the whole of ``D`` is made.  Only ``D_22`` is
  eigensolved: ``D_33`` has the conjugate spectrum, and ``D_11`` and
  ``D_44`` have the conjugated transfer spectra of the twin and of the
  system, which :func:`~freerep.systems.normalize` already certified.
- ``dim_one = mult_one − rank N``.  ``N`` is the strictly upper
  triangular coupling ``N_ij = l_i C_ij r_j`` between the fixed vectors
  ``r_i`` and functionals ``l_i`` (``l_i r_i = 1``) of the blocks that
  have one, through ``C_ij = D_ij + Σ_{i<m<j} D_im G_m C_mj`` with
  ``G_m`` the group inverse of ``I − D_mm`` (LU solves).  It is at most
  4×4, so its rank is read from its singular values.
- ``r_i`` and ``l_i`` are the closed forms in ``B``, ``B̂`` and ``K``
  (an eigensolve of the one block where a form does not hold), balanced
  to equal norms in the frame where ``B = I``.  The singular values of
  ``N`` are then invariant under a change of basis of the system, and
  are ranked against ``δ``.
- A singular value within a factor 10 of ``δ`` makes the decision
  ambiguous; the diagnostic then prints the singular values of ``N`` and
  the threshold.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .systems import UndecidedError, frob_tuple
from .twin import NULLSPACE_RTOL, _unvec_tuple, pair_block, twin_package

# Eigenvalue-1 cluster radius and the required relative spectral gap.
DELTA = 1e-6
GAP_FACTOR = 10.0

# Least-squares acceptance threshold for the Q system, relative to ‖E‖.
Q_ACCEPT_TOL = 1e-9

# Relative residual below which a closed-form fixed vector of a diagonal
# block is used; above it the block is eigensolved instead.
FORM_TOL = 1e-8

_ROWS = (1, 2, 3, 4)


@dataclass
class DMatrix:
    """Dense block matrix with its slot index.

    ``slots`` maps ``(i, c)`` for block-row ``i ∈ 1..4`` and letter ``c``
    to ``(offset, (rows, cols))`` of the vectorized slot; ``side`` is the
    full dimension.  The matrix is block upper triangular in the block
    rows (the pair blocks leave every block below the diagonal zero), so its
    spectrum is that of the four diagonal blocks, ``block_eigenvalues``.
    ``package`` is the twin package it was built from, the source of the
    fixed vectors; a hand-built matrix has none, and no fixed pair.
    """

    matrix: np.ndarray
    slots: dict
    side: int
    block_eigenvalues: tuple
    package: object = None

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


def build_D(pkg):
    """Assemble the block matrix from a twin package.

    ``D`` is the operator of the sphere-sum recursion under the slot map:
    slot ``(i, c)`` holds ``S^i`` of ``S_c = [[S⁴, S²], [S³, S¹]]``, and
    the block of letters ``(a, b)`` is ``S_b ↦ X_ab S_b X_ab†`` for the
    pair block ``X_ab`` of :func:`~freerep.twin.pair_block`.  The zero
    corner of ``X_ab`` makes every block below the diagonal and the
    block ``(2, 3)`` exactly zero.  Of the diagonal blocks only ``D_22``
    is eigensolved (see the module docstring).
    """
    nsys = pkg.original
    dims = nsys.dims
    size = nsys.alphabet.size
    slots = {}
    off = 0
    for i in _ROWS:
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
    lo, hi = slots[(2, 0)][0], slots[(3, 0)][0]
    mixed = np.linalg.eigvals(mat[lo:hi, lo:hi])
    spectra = (pkg.twin.transfer_spectrum.conj(), mixed, mixed.conj(),
               pkg.original.transfer_spectrum.conj())
    return DMatrix(matrix=mat, slots=slots, side=off,
                   block_eigenvalues=spectra, package=pkg)


@dataclass
class EigenOne:
    """Eigenvalue-1 data: algebraic count in the δ-cluster, geometric
    dimension ``mult − rank N``, and the margin of the rank decision.

    ``sv_profile`` holds the singular values of the coupling matrix ``N``
    (descending) and ``threshold`` the value they are ranked against.
    """

    mult_one: int
    dim_one: int
    gap: float
    sv_profile: tuple
    ambiguous: bool
    threshold: float


def eigen_one(d, delta=DELTA):
    """Count the eigenvalue-1 cluster and its geometric dimension.

    The cluster is read off the diagonal blocks.  Each block that has an
    eigenvalue within ``δ`` of 1 has exactly one; its right and left
    fixed vectors couple through the blocks above the diagonal into the
    strictly upper triangular ``N``, and ``dim_one = mult − rank N``.
    The fixed vectors are balanced in the frame where ``B = I``, so the
    singular values of ``N`` are gauge invariant and of order one when
    they do not vanish; they are ranked against ``δ``.

    Raises
    ------
    UndecidedError
        "ill-conditioned cluster" when the spectral gap around 1 is below
        ``10·δ``, making the multiplicity count unreliable; and when a
        diagonal block has more than one eigenvalue in the cluster.
    """
    counts = []
    outside = []
    for vals in d.block_eigenvalues:
        dist = np.abs(vals - 1.0)
        inside = dist < delta
        counts.append(int(np.sum(inside)))
        outside.append(dist[~inside])
    mult = sum(counts)
    outside = np.concatenate(outside)
    gap = float(outside.min()) if outside.size else np.inf
    if mult and gap < GAP_FACTOR * delta:
        raise UndecidedError("ill-conditioned cluster")
    for i, count in zip(_ROWS, counts):
        if count > 1:
            raise UndecidedError("eigenvalue 1 of D_%d%d is not simple"
                                 % (i, i))
    pairs = {i: _fixed_pair(d, i) for i, count in zip(_ROWS, counts)
             if count}
    sv = np.linalg.svd(_coupling(d, pairs), compute_uv=False)
    near = sv[(sv > delta / 10) & (sv < delta * 10)]
    return EigenOne(
        mult_one=mult,
        dim_one=mult - int(np.sum(sv >= delta)),
        gap=gap,
        sv_profile=tuple(float(x) for x in sv),
        ambiguous=near.size > 0,
        threshold=delta,
    )


def _fixed_pair(d, i):
    """Right fixed vector ``r`` and left fixed functional ``l`` of
    ``D_ii`` on block row ``i``, with ``l·r = 1``.

    The closed forms of :func:`_fixed_forms` are used when they pass
    :data:`FORM_TOL`, otherwise the block is eigensolved.  The pair is
    balanced so that ``r`` and ``l`` have equal norms in the whitened
    frame of :func:`_whitening`, which makes ``N`` a gauge invariant up
    to the phases of its rows and columns.
    """
    block = d.block(i, i)
    pair = None
    forms = _fixed_forms(d.package, i)
    if forms is not None:
        right, left = forms
        row = d.rows(i)
        r = d.embed(i, right)[row]
        l = d.embed(i, tuple(t.T for t in left))[row]
        if (np.linalg.norm(block @ r - r) < FORM_TOL * np.linalg.norm(r)
                and np.linalg.norm(l @ block - l)
                < FORM_TOL * np.linalg.norm(l)):
            pair = r, l
    if pair is None:
        pair = _eig_pair(block)
    r, l = pair
    l = l / (l @ r)
    r_norm, l_norm = _whitened_norms(d, i, r, l)
    scale = np.sqrt(l_norm / r_norm)
    return r * scale, l / scale


def _eig_pair(block):
    """Right and left eigenvectors of ``block`` for its eigenvalue
    nearest 1."""
    vals, vecs = np.linalg.eig(block)
    lvals, lvecs = np.linalg.eig(block.T)
    return (vecs[:, np.argmin(np.abs(vals - 1.0))],
            lvecs[:, np.argmin(np.abs(lvals - 1.0))])


def _whitening(pkg, i):
    """Per-letter factors ``((L, L⁻¹), (R, R⁻¹))`` of the change of frame
    ``S ↦ L S R`` on block row ``i`` that takes ``B`` to the identity.

    That is the gauge ``g_a = B_a^{1/2}``, under which the twin's side of
    a slot moves by ``B_{a⁻¹}^{-1/2}``.  Any gauge of the system lands in
    the same frame up to a unitary one, which preserves Frobenius norms.
    """
    up = []
    for b in pkg.original.B:
        w, v = np.linalg.eigh(b)
        up.append(((v * np.sqrt(w)) @ v.conj().T,
                   (v / np.sqrt(w)) @ v.conj().T))
    # which side of the row's slots (rows, columns) belongs to the twin
    twin_side = {1: (True, True), 2: (False, True), 3: (True, False),
                 4: (False, False)}[i]

    def factor(a, on_twin):
        return up[a ^ 1][::-1] if on_twin else up[a]

    return [tuple(factor(a, t) for t in twin_side) for a in range(len(up))]


def _whitened_norms(d, i, r, l):
    """Frobenius norms of ``r`` and of ``l`` in the whitened frame."""
    start = d.rows(i).start
    r_sq = l_sq = 0.0
    for a, ((left, left_inv), (right, right_inv)) in enumerate(
            _whitening(d.package, i)):
        off, shape = d.slots[(i, a)]
        cut = slice(off - start, off - start + shape[0] * shape[1])
        r_sq += np.linalg.norm(left @ r[cut].reshape(shape) @ right) ** 2
        # l(S) = Σ l_jk S_jk is tr(lᵀ S); whitened, lᵀ ↦ R⁻¹ lᵀ L⁻¹
        l_sq += np.linalg.norm(
            right_inv @ l[cut].reshape(shape).T @ left_inv) ** 2
    return np.sqrt(r_sq), np.sqrt(l_sq)


def _coupling(d, pairs):
    """The coupling ``N_ij = l_i C_ij r_j`` between the rows ``i < j``
    that carry a fixed vector, where ``C_ij = D_ij + Σ_{i<m<j} D_im G_m
    C_mj`` and ``G_m`` is the group inverse of ``I − D_mm``.

    Only the vectors ``C_mj r_j`` are formed, one block row at a time
    upwards from ``j``; a vector that is exactly zero (``D_23 = 0``) is
    not solved.
    """
    rows = sorted(pairs)
    index = {i: k for k, i in enumerate(rows)}
    n = np.zeros((len(rows), len(rows)), dtype=complex)
    for j in rows:
        solved = {}
        for m in range(j - 1, rows[0] - 1, -1):
            c = d.block(m, j) @ pairs[j][0]
            for p, g in solved.items():
                c += d.block(m, p) @ g
            if m in pairs:
                n[index[m], index[j]] = pairs[m][1] @ c
            if m > rows[0] and np.any(c):
                solved[m] = _group_solve(d.block(m, m), pairs.get(m), c)
    return n


def _group_solve(block, pair, y):
    """``G y`` for ``G`` the group inverse of ``A = I − block``.

    Without a fixed pair ``A`` is invertible and ``G = A⁻¹``.  With the
    fixed pair ``(r, l)``, ``l·r = 1``, the kernel of ``A`` is simple and
    ``G = (A + r l)⁻¹ − r l``.  One LU solve either way.
    """
    a = np.eye(block.shape[0]) - block
    if pair is None:
        return np.linalg.solve(a, y)
    r, l = pair
    a += np.outer(r, l)
    return np.linalg.solve(a, y) - r * (l @ y)


def _fixed_forms(pkg, i):
    """Closed-form right and left fixed tuples of ``D_ii``.

    The left tuple ``t`` is the functional ``S ↦ Σ_a tr(t_a S_a)``.  Rows
    1 and 4 are the transfer operators of the twin and of the system,
    fixed by ``B`` and ``B̂``; rows 2 and 3 need the equivalence tuple
    ``K`` (``K_a H_ab = Ĥ_ab K_b``), and are ``None`` without it.
    """
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    size = nsys.alphabet.size
    B, Bh = nsys.B, tw.B
    if i == 1:
        return (tuple(B[a ^ 1] for a in range(size)),
                tuple(Bh[a] for a in range(size)))
    if i == 4:
        return (tuple(Bh[a ^ 1] for a in range(size)),
                tuple(B[a] for a in range(size)))
    if K is None:
        return None
    if i == 2:
        return (tuple(np.linalg.solve(K[a], B[a ^ 1]) for a in range(size)),
                tuple(Bh[a] @ K[a] for a in range(size)))
    return (tuple(np.linalg.solve(K[a ^ 1].T, B[a ^ 1].T).T
                  for a in range(size)),
            tuple(K[a].conj().T @ Bh[a] for a in range(size)))


def trace_condition(pkg):
    """The trace obstruction ``Σ_ab tr(K_a⁻¹ E_ab B̂_{b⁻¹} H_ab† B_a)``.

    Returns ``(value, scale)``; vanishing of ``value`` against ``scale`` is
    equivalent to geometric dimension at least 3.  ``scale`` sums the
    absolute values of the terms once every ``E_ab`` is expanded into its
    summands ``H[c, a⁻¹]† B_c H[c, b]``: each such term is the trace of a
    product of gauge-covariant factors, so the ratio does not move under a
    gauge change, and the terms keep their size where ``E`` cancels.
    """
    if pkg.K is None:
        raise ValueError("K missing: trace condition requires equivalent twins")
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    blocks = nsys.system.blocks
    size = nsys.alphabet.size
    value = 0.0 + 0.0j
    scale = 0.0
    for a in range(size):
        kinv = np.linalg.inv(K[a])
        for b in range(size):
            if a == b ^ 1:
                continue
            tail = tw.B[b ^ 1] @ nsys.h(a, b).conj().T @ nsys.B[a]
            value += np.trace(kinv @ pkg.e(a, b) @ tail)
            for c in range(size):
                left, right = blocks.get((c, a ^ 1)), blocks.get((c, b))
                if left is not None and right is not None:
                    scale += abs(np.trace(
                        kinv @ left.conj().T @ nsys.B[c] @ right @ tail))
    return complex(value), float(scale)


def trace_ratio(value, scale):
    """``|value| / scale`` for a :func:`trace_condition` pair, 0 when every
    term is exactly 0."""
    return abs(value) / scale if scale else 0.0


@dataclass
class QTuple:
    """Solution of the inhomogeneous intertwining system.

    ``Q_a : V_a → V̂_a`` with ``Ĥ_ab Q_b + E_ab = Q_a H_ab`` and the
    antisymmetry ``Q_a† = −Q_{a⁻¹}``.
    """

    Q: tuple
    residual: float
    antisymmetry_residual: float


def q_least_squares(pkg):
    """Minimal-norm least-squares Q and its relative residual.

    The Q equations read ``M Q = −E`` for the intertwining operator ``M``
    of the equivalence test, with ``E`` stacked in ``pairs()`` order, so
    they are solved from the SVD that test already took:
    ``Q = −V_k Σ_k⁻¹ U_kᴴ E`` over the singular values the nullspace
    decision kept (at least ``NULLSPACE_RTOL·s_0``).  The residual is
    ``‖U_k U_kᴴ E − E‖ / ‖E‖``, formed by vector subtraction.

    A vanishing right-hand side (the E maps cancel identically, which
    happens on a genuine sub-family) makes the relative residual
    meaningless; the zero tuple is then the canonical exact solution.
    """
    nsys = pkg.original
    u, s, vh = pkg.equivalence.factors
    rhs = np.concatenate([pkg.E[pair].ravel() for pair in nsys.system.pairs()])
    if np.linalg.norm(rhs) < 1e-12 * frob_tuple(nsys.B):
        sol, residual = np.zeros(vh.shape[1], dtype=complex), 0.0
    else:
        k = int(np.sum(s >= NULLSPACE_RTOL * s[0]))
        u, s, vh = u[:, :k], s[:k], vh[:k]
        coeffs = u.conj().T @ rhs
        residual = float(np.linalg.norm(u @ coeffs - rhs)
                         / np.linalg.norm(rhs))
        sol = -(vh.conj().T @ (coeffs / s))
    return _unvec_tuple(sol, nsys.dims, pkg.twin.dims), residual


def q_residual(pkg, Q):
    """Relative residual of a candidate Q by explicit substitution."""
    nsys = pkg.original
    num = 0.0
    den = 0.0
    for a in range(nsys.alphabet.size):
        for b in range(nsys.alphabet.size):
            if a == b ^ 1:
                continue
            e = pkg.e(a, b)
            gap = pkg.hhat(a, b) @ Q[b] + e - Q[a] @ nsys.h(a, b)
            num += float(np.linalg.norm(gap) ** 2)
            den += float(np.linalg.norm(e) ** 2)
    floor = 1e-12 * frob_tuple(nsys.B)
    if den < floor * floor:
        # identically vanishing E: fall back to the absolute defect
        return float(np.sqrt(num))
    return np.sqrt(num / den)


def solve_Q(pkg):
    """Solve for the Q tuple; ``None`` when the system is inconsistent.

    The stacked system is solved by least squares and accepted only if the
    relative residual is below :data:`Q_ACCEPT_TOL`; the solution is then
    antisymmetrized (``Q_a ← (Q_a − Q_{a⁻¹}†)/2``, again a solution) and
    re-verified by substitution.
    """
    return _accept_Q(pkg, *q_least_squares(pkg))


def _accept_Q(pkg, Q, residual):
    """The acceptance steps of :func:`solve_Q` on a least-squares
    solution ``Q`` with relative residual ``residual``."""
    if residual >= Q_ACCEPT_TOL:
        return None
    Q = tuple((Q[c] - Q[c ^ 1].conj().T) / 2 for c in range(len(Q)))
    residual = q_residual(pkg, Q)
    if residual >= Q_ACCEPT_TOL:
        return None
    anti = max(
        float(np.linalg.norm(Q[c].conj().T + Q[c ^ 1])) for c in range(len(Q))
    ) / max(frob_tuple(Q), 1e-300)
    return QTuple(Q=Q, residual=residual, antisymmetry_residual=anti)


@dataclass
class SpectralReport:
    """Full classification outcome for one normalized system."""

    rho_D: float
    mult_one: int
    dim_one: int
    twins_equivalent: bool
    class_label: str
    predicted_exponent: int
    trace_condition_value: complex
    trace_condition_scale: float
    Q: Optional[QTuple]
    realization_verdict: str
    q_residual: float
    gap: float
    diagnostics: list = field(default_factory=list)
    sv_profile: tuple = ()
    package: object = None
    dmatrix: object = None


_CLASS_TABLE = {
    # (equivalent, dim_one) -> (label, exponent, verdict)
    (False, 1): ("AII", 2, "monotony"),
    (False, 2): ("AI", 1, "duplicity"),
    (True, 2): ("BII", 3, "monotony"),
    (True, 3): ("BII", 2, "monotony"),
    (True, 4): ("BI", 1, "oddity-split"),
}


def classify(nsys):
    """Classify a normalized irreducible system into AI/AII/BI/BII.

    Assembles the twin package and block matrix, analyzes the eigenvalue-1
    cluster, attempts the Q solve, evaluates the trace obstruction when
    twins are equivalent, and cross-checks every relation the class label
    implies.  Inconsistencies downgrade the verdict to ``undecided`` with
    diagnostics instead of forcing a label.
    """
    diagnostics = []
    pkg = twin_package(nsys)
    d = build_D(pkg)
    rho_d = max(float(np.max(np.abs(v))) for v in d.block_eigenvalues)
    try:
        eig = eigen_one(d)
    except UndecidedError as err:
        return SpectralReport(
            rho_D=rho_d, mult_one=-1, dim_one=-1,
            twins_equivalent=pkg.equivalent, class_label="undecided",
            predicted_exponent=0, trace_condition_value=0j,
            trace_condition_scale=0.0, Q=None,
            realization_verdict="undecided", q_residual=np.nan, gap=np.nan,
            diagnostics=[str(err)], package=pkg, dmatrix=d,
        )
    equivalent = pkg.equivalent
    ls_Q, ls_residual = q_least_squares(pkg)
    q = _accept_Q(pkg, ls_Q, ls_residual)
    trace_val, trace_scale = (0j, 0.0)
    if equivalent:
        trace_val, trace_scale = trace_condition(pkg)
    # structural consistency checks; failures mean the numerics disagree
    # with the dichotomy and the result cannot be trusted
    expected_mult = 4 if equivalent else 2
    if eig.mult_one != expected_mult:
        diagnostics.append(
            "multiplicity %d inconsistent with %s twins"
            % (eig.mult_one, "equivalent" if equivalent else "inequivalent")
        )
    if equivalent and eig.dim_one == 1:
        diagnostics.append("dimension 1 with equivalent twins is impossible")
    if eig.ambiguous:
        diagnostics.append(
            "rank decision ambiguous near threshold; singular values of "
            "N: %s, threshold %.1e" % (eig.sv_profile, eig.threshold)
        )
    key = (equivalent, eig.dim_one)
    if key not in _CLASS_TABLE or diagnostics:
        return SpectralReport(
            rho_D=rho_d, mult_one=eig.mult_one, dim_one=eig.dim_one,
            twins_equivalent=equivalent, class_label="undecided",
            predicted_exponent=0, trace_condition_value=trace_val,
            trace_condition_scale=trace_scale, Q=q,
            realization_verdict="undecided", q_residual=ls_residual,
            gap=eig.gap, diagnostics=diagnostics or ["no class for d=%d"
                                                     % eig.dim_one],
            sv_profile=eig.sv_profile, package=pkg, dmatrix=d,
        )
    label, exponent, verdict = _CLASS_TABLE[key]
    # Q solvability must match the class: present for AI/BI, absent else
    if label in ("AI", "BI") and q is None:
        diagnostics.append("class %s requires a Q tuple but none found "
                           "(residual %.2e)" % (label, ls_residual))
    if label in ("AII", "BII") and q is not None:
        diagnostics.append("class %s forbids a Q tuple but one was found"
                           % label)
    if equivalent:
        rel = trace_ratio(trace_val, trace_scale)
        vanishes = rel < 1e-6
        if vanishes != (eig.dim_one >= 3):
            diagnostics.append(
                "trace condition (relative %.2e) inconsistent with d=%d"
                % (rel, eig.dim_one)
            )
    if diagnostics:
        label, exponent, verdict = "undecided", 0, "undecided"
    return SpectralReport(
        rho_D=rho_d, mult_one=eig.mult_one, dim_one=eig.dim_one,
        twins_equivalent=equivalent, class_label=label,
        predicted_exponent=exponent, trace_condition_value=trace_val,
        trace_condition_scale=trace_scale, Q=q,
        realization_verdict=verdict, q_residual=ls_residual, gap=eig.gap,
        diagnostics=diagnostics, sv_profile=eig.sv_profile, package=pkg,
        dmatrix=d,
    )
