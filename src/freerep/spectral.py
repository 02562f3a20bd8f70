"""The four-row block matrix, its eigenvalue-1 analysis, the trace
obstruction, the Q tuple, and the symmetry-class decision.

Tensor blocks realize ``S ↦ X S Y†`` as ``kron(X, conj(Y))`` acting on
row-major vectorized ``S``; any consistent convention yields the same
spectra, and this one keeps every formula a one-liner in numpy.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .systems import UndecidedError, frob_tuple
from .twin import twin_package

# Eigenvalue-1 cluster radius and the required relative spectral gap.
DELTA = 1e-6
GAP_FACTOR = 10.0

# Least-squares acceptance threshold for the Q system, relative to ‖E‖.
Q_ACCEPT_TOL = 1e-9


def _tensor(x, y):
    """Matrix of ``S ↦ X S Y†`` on row-major vec'd ``S``."""
    return np.kron(x, y.conj())


@dataclass
class DMatrix:
    """Dense block matrix with its slot index.

    ``slots`` maps ``(i, c)`` for block-row ``i ∈ 1..4`` and letter ``c``
    to ``(offset, (rows, cols))`` of the vectorized slot; ``side`` is the
    full dimension.
    """

    matrix: np.ndarray
    slots: dict
    side: int

    @cached_property
    def eigenvalues(self):
        """Eigenvalues of ``matrix``, solved once and shared by every
        reader (the spectral radius and the eigenvalue-1 count)."""
        return np.linalg.eigvals(self.matrix)

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


def build_D(pkg):
    """Assemble the block matrix from a twin package.

    Block row 1 couples to every row; rows 2 and 3 couple to themselves
    and row 4; row 4 only to itself.  Zero blocks are constructed, never
    computed, so the sparsity pattern is exact.
    """
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
    side = off
    mat = np.zeros((side, side), dtype=complex)
    for a in range(size):
        for b in range(size):
            if a == b ^ 1:
                continue
            h = nsys.h(a, b)
            hh = pkg.hhat(a, b)
            e = pkg.e(a, b)
            if e.shape != (dims[a ^ 1], dims[b]):
                raise ValueError(
                    "shape inconsistency between E and H blocks at (%d, %d)"
                    % (a, b)
                )
            entries = {
                (1, 1): (hh, hh),
                (1, 2): (e, hh),
                (1, 3): (hh, e),
                (1, 4): (e, e),
                (2, 2): (h, hh),
                (2, 4): (h, e),
                (3, 3): (hh, h),
                (3, 4): (e, h),
                (4, 4): (h, h),
            }
            for (i, j), (x, y) in entries.items():
                ro, rs = slots[(i, a)]
                co, cs = slots[(j, b)]
                block = _tensor(x, y)
                mat[ro:ro + rs[0] * rs[1], co:co + cs[0] * cs[1]] += block
    return DMatrix(matrix=mat, slots=slots, side=side)


@dataclass
class EigenOne:
    """Eigenvalue-1 data: algebraic count in the δ-cluster, geometric
    dimension from the rank of ``D − I``, and audit quantities."""

    mult_one: int
    dim_one: int
    gap: float
    sv_profile: tuple
    ambiguous: bool


def eigen_one(d, delta=DELTA):
    """Count the eigenvalue-1 cluster and its geometric dimension.

    Raises
    ------
    UndecidedError
        "ill-conditioned cluster" when the spectral gap around 1 is below
        ``10·δ``, making the multiplicity count unreliable.
    """
    vals = d.eigenvalues
    dist = np.abs(vals - 1.0)
    inside = dist < delta
    mult = int(np.sum(inside))
    outside = dist[~inside]
    gap = float(outside.min()) if outside.size else np.inf
    if mult and gap < GAP_FACTOR * delta:
        raise UndecidedError("ill-conditioned cluster")
    sv = np.linalg.svd(d.matrix - np.eye(d.side), compute_uv=False)
    thresh = delta * sv[0]
    dim = int(np.sum(sv < thresh))
    near = sv[(sv > thresh / 10) & (sv < thresh * 10)]
    ambiguous = near.size > 0
    profile = tuple(float(x) for x in sv[-max(mult, dim, 1) - 2:])
    return EigenOne(
        mult_one=mult,
        dim_one=dim,
        gap=gap,
        sv_profile=profile,
        ambiguous=ambiguous,
    )


def diag_block_apply(pkg, i, tuple_of_mats):
    """Action of the diagonal block ``D_ii`` on a block-row tuple.

    Computed directly from the letter blocks, independently of
    :func:`build_D`, so the two can cross-validate each other.
    """
    nsys = pkg.original
    size = nsys.alphabet.size
    factors = {
        1: lambda a, b: (pkg.hhat(a, b), pkg.hhat(a, b)),
        2: lambda a, b: (nsys.h(a, b), pkg.hhat(a, b)),
        3: lambda a, b: (pkg.hhat(a, b), nsys.h(a, b)),
        4: lambda a, b: (nsys.h(a, b), nsys.h(a, b)),
    }[i]
    out = []
    for a in range(size):
        shape = _slot_shapes(nsys.dims, a)[i]
        acc = np.zeros(shape, dtype=complex)
        for b in range(size):
            if a == b ^ 1:
                continue
            x, y = factors(a, b)
            acc += x @ tuple_of_mats[b] @ y.conj().T
        out.append(acc)
    return tuple(out)


def diag_eigvec_tuples(pkg):
    """The four diagonal-block fixed tuples built from ``B``, ``B̂``, ``K``."""
    if pkg.K is None:
        raise ValueError("K missing: diagonal eigenvector check requires "
                         "equivalent twins")
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    size = nsys.alphabet.size
    kinv = [np.linalg.inv(K[c]) for c in range(size)]
    u1 = tuple(nsys.B[a ^ 1] for a in range(size))
    u2 = tuple(kinv[a] @ nsys.B[a ^ 1] for a in range(size))
    u3 = tuple(nsys.B[a ^ 1] @ kinv[a ^ 1] for a in range(size))
    u4 = tuple(tw.B[a ^ 1] for a in range(size))
    return u1, u2, u3, u4


def diag_eigvec_check(pkg):
    """Residuals of ``D_ii U_i = U_i`` for the four canonical tuples."""
    residuals = []
    for i, u in enumerate(diag_eigvec_tuples(pkg), start=1):
        image = diag_block_apply(pkg, i, u)
        gap = frob_tuple(tuple(x - y for x, y in zip(image, u)))
        residuals.append(gap / frob_tuple(u))
    return tuple(residuals)


def trace_condition(pkg):
    """The trace obstruction ``Σ_ab tr(K_a⁻¹ E_ab B̂_{b⁻¹} H_ab† B_a)``.

    Returns ``(value, scale)`` where ``scale`` sums the absolute values of
    the individual terms; vanishing of ``value`` against ``scale`` is
    equivalent to geometric dimension at least 3.
    """
    if pkg.K is None:
        raise ValueError("K missing: trace condition requires equivalent twins")
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    size = nsys.alphabet.size
    value = 0.0 + 0.0j
    scale = 0.0
    for a in range(size):
        kinv = np.linalg.inv(K[a])
        for b in range(size):
            if a == b ^ 1:
                continue
            term = np.trace(
                kinv @ pkg.e(a, b) @ tw.B[b ^ 1]
                @ nsys.h(a, b).conj().T @ nsys.B[a]
            )
            value += term
            scale += abs(term)
    return complex(value), float(scale)


def twin_side_trace_condition(pkg):
    """The companion twin-side trace sum, computed for cross-checking.

    ``Σ_ab tr(Ĥ_ab B_{b⁻¹} K_{b⁻¹}⁻¹ E_ab† B̂_a)``; expected to vanish
    exactly when :func:`trace_condition` does.
    """
    if pkg.K is None:
        raise ValueError("K missing")
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    size = nsys.alphabet.size
    value = 0.0 + 0.0j
    scale = 0.0
    for a in range(size):
        for b in range(size):
            if a == b ^ 1:
                continue
            term = np.trace(
                pkg.hhat(a, b) @ nsys.B[b ^ 1] @ np.linalg.inv(K[b ^ 1])
                @ pkg.e(a, b).conj().T @ tw.B[a]
            )
            value += term
            scale += abs(term)
    return complex(value), float(scale)


@dataclass
class QTuple:
    """Solution of the inhomogeneous intertwining system.

    ``Q_a : V_a → V̂_a`` with ``Ĥ_ab Q_b + E_ab = Q_a H_ab`` and the
    antisymmetry ``Q_a† = −Q_{a⁻¹}``.
    """

    Q: tuple
    residual: float
    antisymmetry_residual: float


def _q_system(pkg):
    """Stacked least-squares data for the Q equations."""
    nsys = pkg.original
    dims = nsys.dims
    size = nsys.alphabet.size
    cols = [dims[c ^ 1] * dims[c] for c in range(size)]
    offs = np.concatenate([[0], np.cumsum(cols)]).astype(int)
    lhs_rows = []
    rhs_parts = []
    for a in range(size):
        for b in range(size):
            if a == b ^ 1:
                continue
            h = nsys.h(a, b)
            hh = pkg.hhat(a, b)
            e = pkg.e(a, b)
            row = np.zeros((dims[a ^ 1] * dims[b], offs[-1]), dtype=complex)
            row[:, offs[a]:offs[a] + cols[a]] += np.kron(
                np.eye(dims[a ^ 1]), h.T
            )
            row[:, offs[b]:offs[b] + cols[b]] -= np.kron(hh, np.eye(dims[b]))
            lhs_rows.append(row)
            rhs_parts.append(e.ravel())
    return np.vstack(lhs_rows), np.concatenate(rhs_parts), offs


def q_least_squares(pkg):
    """Minimal-norm least-squares Q and its relative residual.

    A vanishing right-hand side (the E maps cancel identically, which
    happens on a genuine sub-family) makes the relative residual
    meaningless; the zero tuple is then the canonical exact solution.
    """
    lhs, rhs, offs = _q_system(pkg)
    dims = pkg.original.dims
    if np.linalg.norm(rhs) < 1e-12 * frob_tuple(pkg.original.B):
        Q = tuple(
            np.zeros((dims[c ^ 1], dims[c]), dtype=complex)
            for c in range(len(dims))
        )
        return Q, 0.0
    sol, _, _, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = float(np.linalg.norm(lhs @ sol - rhs) / np.linalg.norm(rhs))
    Q = tuple(
        sol[offs[c]:offs[c + 1]].reshape(dims[c ^ 1], dims[c])
        for c in range(len(dims))
    )
    return Q, residual


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


def solve_Q(pkg, accept_tol=Q_ACCEPT_TOL):
    """Solve for the Q tuple; ``None`` when the system is inconsistent.

    The stacked system is solved by least squares and accepted only if the
    relative residual is below ``accept_tol``; the solution is then
    antisymmetrized (``Q_a ← (Q_a − Q_{a⁻¹}†)/2``, again a solution) and
    re-verified by substitution.
    """
    return _accept_Q(pkg, *q_least_squares(pkg), accept_tol)


def _accept_Q(pkg, Q, residual, accept_tol):
    """The acceptance steps of :func:`solve_Q` on a least-squares
    solution ``Q`` with relative residual ``residual``."""
    if residual >= accept_tol:
        return None
    Q = tuple((Q[c] - Q[c ^ 1].conj().T) / 2 for c in range(len(Q)))
    residual = q_residual(pkg, Q)
    if residual >= accept_tol:
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
    twin_trace_value: Optional[complex]
    Q: Optional[QTuple]
    realization_verdict: str
    q_residual: float
    gap: float
    diagnostics: list = field(default_factory=list)
    diag_residuals: Optional[tuple] = None
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
    rho_d = float(np.max(np.abs(d.eigenvalues)))
    try:
        eig = eigen_one(d)
    except UndecidedError as err:
        return SpectralReport(
            rho_D=rho_d, mult_one=-1, dim_one=-1,
            twins_equivalent=pkg.equivalent, class_label="undecided",
            predicted_exponent=0, trace_condition_value=0j,
            trace_condition_scale=0.0, twin_trace_value=None, Q=None,
            realization_verdict="undecided", q_residual=np.nan, gap=np.nan,
            diagnostics=[str(err)], package=pkg, dmatrix=d,
        )
    equivalent = pkg.equivalent
    ls_Q, ls_residual = q_least_squares(pkg)
    q = _accept_Q(pkg, ls_Q, ls_residual, Q_ACCEPT_TOL)
    trace_val, trace_scale = (0j, 0.0)
    twin_trace = None
    diag_res = None
    if equivalent:
        trace_val, trace_scale = trace_condition(pkg)
        twin_trace, _ = twin_side_trace_condition(pkg)
        diag_res = diag_eigvec_check(pkg)
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
            "rank decision ambiguous near threshold; singular value "
            "profile: %s" % (eig.sv_profile,)
        )
    key = (equivalent, eig.dim_one)
    if key not in _CLASS_TABLE or diagnostics:
        return SpectralReport(
            rho_D=rho_d, mult_one=eig.mult_one, dim_one=eig.dim_one,
            twins_equivalent=equivalent, class_label="undecided",
            predicted_exponent=0, trace_condition_value=trace_val,
            trace_condition_scale=trace_scale, twin_trace_value=twin_trace,
            Q=q, realization_verdict="undecided", q_residual=ls_residual,
            gap=eig.gap, diagnostics=diagnostics or ["no class for d=%d"
                                                     % eig.dim_one],
            diag_residuals=diag_res, sv_profile=eig.sv_profile, package=pkg,
            dmatrix=d,
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
        # the scale itself vanishes when E does; floor it at the B scale
        rel = abs(trace_val) / max(trace_scale, frob_tuple(nsys.B))
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
        trace_condition_scale=trace_scale, twin_trace_value=twin_trace,
        Q=q, realization_verdict=verdict, q_residual=ls_residual,
        gap=eig.gap, diagnostics=diagnostics, diag_residuals=diag_res,
        sv_profile=eig.sv_profile, package=pkg, dmatrix=d,
    )
