"""The four-row operator, its eigenvalue-1 analysis, the trace
obstruction, the Q tuple, and the symmetry-class decision.

``D`` is the operator of the sphere-sum recursion of
:mod:`freerep.series`, read on the quadrants of its moment matrices.
Letter ``c`` carries a matrix ``S_c = [[S⁴, S²], [S³, S¹]]`` on
``V_c ⊕ V̂_c``; block row ``i`` of ``D`` holds the ``S^i`` of every
letter, row-major; and letter ``l`` feeds letter ``c`` by
``S ↦ X_cl S X_cl†`` with the pair block ``X_cl`` of
:func:`~freerep.twin.pair_block`.  ``D`` is never formed: block
``(m, j)`` acts by :func:`~freerep.series.moment_step` on a moment
matrix whose only nonzero quadrants are the ``S^j``, read at quadrant
``m``.

``D`` is block upper triangular: below the diagonal and in ``(2, 3)``
its blocks are exactly zero.  Its diagonal blocks are the dual transfer
operators of the twin (``D_11``) and of the system (``D_44``) and a
mutually conjugate pair (``D_22``, ``D_33``), each with eigenvalue 1 at
most once.  The eigenvalue-1 analysis reads that structure, one
:class:`Cluster` per diagonal block and no eigensolve:

- A cluster counts the eigenvalues of its block within ``δ`` of 1 and
  bounds the distance to 1 of the others; ``mult_one`` sums the counts
  and ``gap`` is the least bound.  ``D_11`` and ``D_44`` have the
  conjugated transfer spectra of the twin and of the system: each counts
  its Perron root, with the Perron gap that
  :func:`~freerep.systems.normalize` certifies from a resolvent of the
  same kind (:attr:`~freerep.systems.NormalizedSystem.perron_gap`) as
  bound.
  ``D_33`` has the conjugate spectrum of ``D_22``, whose cluster is
  certified from a resolvent: with ``A = I − D_22``, plus ``r l`` for
  its fixed pair when the twins are equivalent, every eigenvalue ``μ`` of
  ``D_22`` but that fixed one has ``|1 − μ| ≥ σ_min(A_w) ≥
  1/‖A_w⁻¹‖_F`` for ``A_w`` the matrix ``A`` in the frame where ``B =
  I`` (Trefethen & Embree, *Spectra and Pseudospectra*, 2005).  One
  inverse gives that bound; when it is below ``10·δ`` the system is
  undecided.  Without ``r l`` the same bound decides the twins
  inequivalent in :func:`~freerep.twin.twin_package`, which hands its
  inverse on.
- ``dim_one = mult_one − rank N``.  ``N`` is the strictly upper
  triangular coupling ``N_ij = l_i C_ij r_j`` between the fixed vectors
  ``r_i`` and functionals ``l_i`` (``l_i r_i = 1``) of the blocks that
  have one, through ``C_ij = D_ij + Σ_{i<m<j} D_im G_m C_mj`` with
  ``G_m`` the group inverse of ``I − D_mm`` (the certificate's inverse
  on row 2 and, through the adjoint, on row 3).  It is at most 4×4, so
  its rank is read from its singular values.
- ``r_i`` and ``l_i`` are the closed forms in ``B``, ``B̂`` and ``K``,
  row 3 the adjoint of row 2, balanced once by :func:`build_D` to equal
  norms in the frame where ``B = I``.  A form whose relative residual
  reaches ``δ`` leaves the system undecided.  The singular values of
  ``N`` are then invariant under a change of basis of the system, and
  are ranked against ``δ``.
- A singular value within a factor 10 of ``δ`` makes the decision
  ambiguous; the diagnostic then prints the singular values of ``N`` and
  the threshold.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .series import moment_step
from .systems import UndecidedError, frob_tuple, kron
from .twin import _unvec_tuple, twin_package

# Eigenvalue-1 cluster radius and the required relative spectral gap.
DELTA = 1e-6
GAP_FACTOR = 10.0

# Least-squares acceptance threshold for the Q system, relative to ‖E‖.
Q_ACCEPT_TOL = 1e-9

_ROWS = (1, 2, 3, 4)

# The sides of quadrant i of S_c = [[S⁴, S²], [S³, S¹]], rows then
# columns: 0 for V_c, 1 for V̂_c.
_QUADRANTS = {1: (1, 1), 2: (0, 1), 3: (1, 0), 4: (0, 0)}


@dataclass
class DMatrix:
    """The four-row operator ``D`` of a twin package.

    ``masks[i]`` marks block row ``i`` on the moment matrix, whose masked
    entries in row-major order are a row-``i`` vector; ``side``, the
    dimension of ``D``, is their total count.  ``D`` is block upper
    triangular, so its eigenvalue-1 cluster is that of its four diagonal
    blocks: ``clusters[i − 1]`` is the :class:`Cluster` of ``D_ii``, and
    rows 2 and 3 share one, ``None`` where the certificate cannot decide.
    ``forms[i]`` is the balanced closed-form fixed pair of row ``i`` from
    :func:`_closed_pairs`.  ``package`` is the twin package it was built
    from, the source of the fixed vectors and of the step.
    """

    package: object
    masks: dict
    forms: dict = field(default_factory=dict)
    clusters: tuple = ()

    @property
    def side(self):
        return int(sum(mask.sum() for mask in self.masks.values()))

    @cached_property
    def frame(self):
        """``W`` and ``W⁻¹`` on the moment matrix, for the frame where
        ``B = I``.

        That is the gauge ``g_a = B_a^{1/2}``, under which the twin's side
        of a moment matrix moves by ``B_{a⁻¹}^{-1/2}``: ``S ↦ W S W`` for
        the block diagonal ``W`` with blocks ``B_c^{1/2}`` and
        ``B_{c⁻¹}^{-1/2}`` on ``V_c ⊕ V̂_c``, and a functional ``l(S) = Σ
        l_jk S_jk`` moves by ``W⁻ᵀ``.  Any gauge of the system lands in the
        same frame up to a unitary one.
        """
        roots = self.package.original.B_roots
        letters = range(len(roots))
        # W for p = 0, W⁻¹ for p = 1
        return tuple(_moment(self, 4, _flat(roots[c][p] for c in letters))
                     + _moment(self, 1, _flat(roots[c ^ 1][1 - p]
                                              for c in letters))
                     for p in (0, 1))


@dataclass
class Cluster:
    """The eigenvalue-1 cluster of a diagonal block ``D_ii``, certified
    without its spectrum.

    ``count`` eigenvalues lie within ``δ`` of 1, and every other
    eigenvalue ``μ`` has ``|1 − μ| ≥ bound``: the margin of the row.
    ``D_11`` and ``D_44`` count their Perron root, and their bound is the
    certified Perron gap.  ``D_22`` and ``D_33``, of conjugate spectra, share one
    certificate: ``count`` is 1 when the twins are equivalent (the
    eigenvalue of the fixed pair) and 0 when not, and ``inverse`` is ``(I
    − D_22 + r l)⁻¹`` (without ``r l`` when ``count`` is 0) in the frame
    of :attr:`DMatrix.frame`.  The certificate with ``count`` 0 is
    :func:`mixed_certificate`, taken by the twin package.
    """

    count: int
    bound: float
    inverse: Optional[np.ndarray] = None


def _row_masks(nsys):
    """Block row ``i`` on the moment matrix, for ``i`` in 1..4: quadrant
    ``i`` of every ``S_c = [[S⁴, S²], [S³, S¹]]``, whose first ``d_c``
    rows and columns are on ``V_c``."""
    dims = nsys.dims
    side = np.concatenate([[0] * dims[c] + [1] * dims[c ^ 1]
                           for c in nsys.alphabet.letters])
    return {i: nsys.moment_operator[2] & (side[:, None] == rows)
            & (side == cols) for i, (rows, cols) in _QUADRANTS.items()}


def _moment(d, i, vec):
    """The moment matrix whose only nonzero entries are the row-``i``
    vector ``vec``."""
    S = np.zeros(d.masks[i].shape, dtype=complex)
    S[d.masks[i]] = vec
    return S


def _flat(mats):
    """Row-``i`` vector of a tuple of per-letter quadrants ``S^i``."""
    return np.concatenate([m.ravel() for m in mats])


def _dense_block(pkg):
    """``W D_22 W⁻¹`` on row-2 vectors, for ``W`` the frame where ``B =
    I`` (:attr:`DMatrix.frame`): block ``(a, b)`` is ``S ↦ P S Q†`` for
    the diagonal quadrants ``P = B_a^{1/2} H[a|b] B_b^{-1/2}`` and ``Q =
    B_{a⁻¹}^{-1/2} Ĥ_ab B_{b⁻¹}^{1/2}`` of the whitened pair block,
    ``kron(P, conj Q)``, and exactly zero for ``b = a⁻¹``.
    """
    nsys = pkg.original
    roots = nsys.B_roots
    letters = nsys.alphabet.letters
    sizes = [nsys.dims[c] * nsys.dims[c ^ 1] for c in letters]
    offs = np.cumsum([0] + sizes)
    out = np.zeros((offs[-1],) * 2, dtype=complex)
    for a in letters:
        for b in letters:
            if a != b ^ 1:
                p = roots[a][0] @ nsys.h(a, b) @ roots[b][1]
                q = (roots[a ^ 1][1] @ pkg.hhat(a, b)
                     @ roots[b ^ 1][0]).conj()
                out[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = kron(p, q)
    return out


def build_D(pkg):
    """The four-row operator of a twin package.

    Block row ``i`` is quadrant ``i`` of the moment matrices ``S_c =
    [[S⁴, S²], [S³, S¹]]``, and ``D`` is the sphere-sum step
    :func:`~freerep.series.moment_step` on them.  The zero corner of the
    pair block ``X_ab`` makes every block below the diagonal and the
    block ``(2, 3)`` exactly zero.  ``D_11`` and ``D_44`` take the Perron
    gap :func:`~freerep.systems.normalize` certified, which the system and
    its twin share.  The cluster of ``D_22`` and ``D_33`` is certified by
    :func:`_mixed_bound`, whose inverse serves the group solves of
    :func:`_coupling` on rows 2 and 3; the whitened ``D_22`` it inverts,
    :attr:`~freerep.twin.TwinPackage.d22`, is the only block of ``D``
    ever assembled, once per package.
    """
    nsys = pkg.original
    d = DMatrix(package=pkg, masks=_row_masks(nsys))
    d.forms = _closed_pairs(d)
    mixed = _mixed_bound(d)
    d.clusters = (Cluster(1, pkg.twin.perron_gap), mixed, mixed,
                  Cluster(1, nsys.perron_gap))
    return d


def mixed_certificate(pkg):
    """The :class:`Cluster` of ``D_22`` with count 0, or ``None`` when it
    cannot rule out an eigenvalue at 1.

    ``A = I − D_22``.  For any matrix ``σ_min ≤ |λ|`` for each eigenvalue
    ``λ``, and ``σ_min(A_w) ≥ 1/‖A_w⁻¹‖_F``, so every eigenvalue ``μ`` of
    ``D_22`` has ``|1 − μ| ≥ 1/‖A_w⁻¹‖_F``.  ``σ_min`` is not similarity
    invariant: ``A_w = W A W⁻¹`` is taken in the frame where ``B = I``,
    where it is a property of the system, while in a badly conditioned
    basis ``σ_min(A)`` itself can fall far below the gap.  A bound of at
    least ``GAP_FACTOR·δ`` certifies that ``D_22`` has no eigenvalue 1,
    that is, that the twins are inequivalent.  It needs only the system
    and its twin, so :func:`~freerep.twin.twin_package` takes it before
    any factorization.
    """
    return _certify(np.eye(len(pkg.d22)) - pkg.d22, 0)


def _mixed_bound(d):
    """The :class:`Cluster` of ``D_22``, or ``None`` when it cannot
    decide.

    Inequivalent twins carry it from :func:`mixed_certificate`.  With
    equivalent twins ``A`` is ``I − D_22 + r l`` for the closed-form fixed
    pair (``l·r = 1``), which by Brauer's theorem moves the eigenvalue 1
    of ``D_22`` to 0 of ``D_22 − r l`` and keeps the others, so every
    other eigenvalue ``μ`` has ``|1 − μ| ≥ 1/‖A_w⁻¹‖_F``.

    Inconclusive when the bound is below ``GAP_FACTOR·δ``.  The pair's
    residual is checked by :func:`eigen_one` before the bound is read.
    """
    pkg = d.package
    if pkg.K is None:
        return pkg.mixed
    r, l, _ = d.forms[2]
    w, w_inv = d.frame
    a = (np.eye(len(pkg.d22)) - pkg.d22
         + np.outer(_sandwich(d, 2, r, w), _sandwich(d, 2, l, w_inv.T)))
    return _certify(a, 1)


def _certify(a, count):
    """:class:`Cluster` from the whitened ``A``, ``None`` below
    ``GAP_FACTOR·δ`` or where ``A`` is exactly singular."""
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    bound = 1.0 / float(np.linalg.norm(inverse))
    if bound < GAP_FACTOR * DELTA:
        return None
    return Cluster(count=count, bound=bound, inverse=inverse)


@dataclass
class EigenOne:
    """Eigenvalue-1 data: algebraic count in the δ-cluster, geometric
    dimension ``mult − rank N``, and the margin of the rank decision.

    ``gap`` is a lower bound on the distance to 1 of every eigenvalue
    outside the cluster, the least :attr:`Cluster.bound` of the four rows:
    the Perron gap on rows 1 and 4, the ``D_22`` certificate on rows 2
    and 3.

    ``sv_profile`` holds the singular values of the coupling matrix ``N``
    (descending) and ``threshold`` the value they are ranked against.
    """

    mult_one: int
    dim_one: int
    gap: float
    sv_profile: tuple
    ambiguous: bool
    threshold: float


def eigen_one(d):
    """Count the eigenvalue-1 cluster and its geometric dimension.

    The cluster is read off the :attr:`DMatrix.clusters`, once every
    closed-form fixed pair has a relative residual below ``δ``: a vector
    with residual ``ε`` is an exact fixed vector of ``D_ii`` perturbed by
    ``ε``, so it lies in the cluster.  Each block counts at most one
    eigenvalue there; the right and left fixed vectors of those that do
    couple through the blocks above the diagonal into the strictly upper
    triangular ``N``, and ``dim_one = mult − rank N``.  The fixed vectors
    are balanced in the frame where ``B = I``, so the singular values of
    ``N`` are gauge invariant and of order one when they do not vanish;
    they are ranked against ``δ``.

    Raises
    ------
    UndecidedError
        "ill-conditioned cluster" when a cluster's bound is below
        ``10·δ``, making the multiplicity count unreliable, or the
        certificate of rows 2 and 3 cannot decide; and when a closed-form
        fixed pair misses its block by ``δ`` or more.
    """
    for i, form in d.forms.items():
        if form is not None and form[2] >= DELTA:
            raise UndecidedError("fixed pair of D_%d%d has relative "
                                 "residual %.1e" % (i, i, form[2]))
    if any(c is None for c in d.clusters):
        raise UndecidedError("ill-conditioned cluster")
    gap = min(c.bound for c in d.clusters)
    if gap < GAP_FACTOR * DELTA:
        raise UndecidedError("ill-conditioned cluster")
    mult = sum(c.count for c in d.clusters)
    sv = np.linalg.svd(_coupling(d), compute_uv=False)
    near = sv[(sv > DELTA / 10) & (sv < DELTA * 10)]
    return EigenOne(
        mult_one=mult,
        dim_one=mult - int(np.sum(sv >= DELTA)),
        gap=gap,
        sv_profile=tuple(float(x) for x in sv),
        ambiguous=near.size > 0,
        threshold=DELTA,
    )


def _closed_pairs(d):
    """The closed forms of :func:`_fixed_forms` per row ``i``: a right
    vector ``r`` and a left functional ``l``, ``l·r = 1``, with a relative
    residual; ``None`` where there is no form.

    ``D_11`` and ``D_44`` are the dual transfer operators of the twin and
    of the system, so their residual is the larger ``fix_residual`` of
    ``B`` and of ``B̂``, which the system and its twin store.  Row 2's is
    the right residual ``‖D_22 r − r‖/‖r‖``, one step of
    :func:`~freerep.series.moment_step`; ``l = (B̂_a K_a)`` needs no check
    of its own, since ``K`` enters through ``r`` and ``B̂`` through
    ``fix_residual``.  Row 3's pair is row 2's through :func:`_adjoint`,
    with the same residual: ``D_33 = adj D_22 adj``, and the map keeps
    norms and ``l·r = 1``.

    ``r`` and ``l`` are balanced to equal norms in the frame where ``B =
    I`` (:attr:`DMatrix.frame`: ``r`` moves by ``W``, ``l`` by ``W⁻ᵀ``),
    which any gauge reaches up to a unitary, so ``N`` is gauge invariant
    up to the phases of its rows and columns.
    """
    pkg = d.package
    nsys = pkg.original
    w, w_inv = d.frame
    out = dict.fromkeys(_ROWS)
    for i in (1, 2, 4):
        forms = _fixed_forms(pkg, i)
        if forms is None:
            continue
        r, l = _flat(forms[0]), _flat(m.T for m in forms[1])
        if i == 2:
            image = moment_step(nsys, _moment(d, 2, r))[d.masks[2]]
            residual = np.linalg.norm(image - r) / np.linalg.norm(r)
        else:
            residual = max(nsys.fix_residual, pkg.twin.fix_residual)
        l = l / (l @ r)
        scale = np.sqrt(np.linalg.norm(_sandwich(d, i, l, w_inv.T))
                        / np.linalg.norm(_sandwich(d, i, r, w)))
        out[i] = (r * scale, l / scale, residual)
    if out[2] is not None:
        r, l, residual = out[2]
        out[3] = (_adjoint(d, 2, r), _adjoint(d, 2, l), residual)
    return out


def _adjoint(d, i, vec):
    """Row-``5 − i`` vector of ``S†``, for ``S`` the moment matrix that
    holds the row-``i`` vector ``vec``: the map between rows 2 and 3.

    The step ``S ↦ X S X†`` commutes with ``S ↦ S†``, which swaps the
    quadrants ``S²`` and ``S³``, so ``D_33 y = adj D_22 adj y``.  The map
    is conjugate linear and keeps Frobenius norms; a left functional of
    row 3 maps to one of row 2 with the same residual.
    """
    return _moment(d, i, vec).conj().T[d.masks[5 - i]]


def _sandwich(d, i, vec, m):
    """Row-``i`` vector of ``m S m``, for ``S`` the moment matrix that
    holds the row-``i`` vector ``vec``."""
    return (m @ _moment(d, i, vec) @ m)[d.masks[i]]


def _coupling(d):
    """The coupling ``N_ij = l_i C_ij r_j`` between the rows ``i < j``
    whose cluster counts a fixed vector, where ``C_ij = D_ij + Σ_{i<m<j}
    D_im G_m C_mj`` and ``G_m`` is the group inverse of ``I − D_mm``.

    Only the vectors ``C_mj r_j`` are formed, one block row at a time
    upwards from ``j``: a moment matrix holds ``r_j`` and the solved
    ``G_m C_mj`` in their quadrants, and one step of
    :func:`~freerep.series.moment_step` gives ``C_mj`` at quadrant ``m``.
    A vector that is exactly zero (``D_23 = 0``) is not solved.
    """
    rows = [i for i, c in zip(_ROWS, d.clusters) if c.count]
    index = {i: k for k, i in enumerate(rows)}
    n = np.zeros((len(rows), len(rows)), dtype=complex)
    for j in rows:
        S = _moment(d, j, d.forms[j][0])
        for m in range(j - 1, rows[0] - 1, -1):
            c = moment_step(d.package.original, S)[d.masks[m]]
            if m in index:
                n[index[m], index[j]] = d.forms[m][1] @ c
            if m > rows[0] and np.any(c):
                S[d.masks[m]] = _group_solve(d, m, c)
    return n


def _group_solve(d, i, y):
    """``G y`` for ``G`` the group inverse of ``A = I − D_ii``, ``i`` in
    2, 3.

    Without a fixed pair (the cluster counts 0) ``A`` is invertible and
    ``G = A⁻¹``.  With the fixed pair ``(r, l)`` of :attr:`DMatrix.forms`,
    ``l·r = 1``, the kernel of ``A`` is simple and ``G = (A + r l)⁻¹ − r
    l``.  Row 2 reads that inverse off its :class:`Cluster`, as ``W⁻¹
    A_w⁻¹ W``.  Row 3 is row 2 through :func:`_adjoint`: the group
    inverse is unique, so ``G_33 = adj G_22 adj``.
    """
    if i == 3:
        return _adjoint(d, 2, _group_solve(d, 2, _adjoint(d, 3, y)))
    w, w_inv = d.frame
    mixed = d.clusters[1]
    x = _sandwich(d, 2, mixed.inverse @ _sandwich(d, 2, y, w), w_inv)
    if not mixed.count:
        return x
    r, l, _ = d.forms[2]
    return x - r * (l @ y)


def _fixed_forms(pkg, i):
    """Closed-form right and left fixed tuples of ``D_ii``, ``i`` in 1,
    2, 4.

    The left tuple ``t`` is the functional ``S ↦ Σ_a tr(t_a S_a)``.  Rows
    1 and 4 are the transfer operators of the twin and of the system,
    fixed by ``B`` and ``B̂``; row 2 needs the equivalence tuple ``K``
    (``K_a H_ab = Ĥ_ab K_b``), and is ``None`` without it.  Row 3 is row
    2 through :func:`_adjoint` (:func:`_closed_pairs`).
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
    return (tuple(np.linalg.solve(K[a], B[a ^ 1]) for a in range(size)),
            tuple(Bh[a] @ K[a] for a in range(size)))


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


def q_least_squares(pkg, d=None):
    """The Q tuple read off the resolvent of ``D_22``, and its relative
    residual by substitution (:func:`q_residual`).

    The shear ``[[I, 0], [Q, I]]`` takes every pair block ``X_ab`` to
    block-diagonal form exactly when ``Q`` solves the Q equations, and
    then the generalized 1-eigenvector of ``D`` above ``r_4 = (B̂_{a⁻¹})_a``
    has row 2 ``Y = G_2 D_24 r_4``, ``Y_a = B̂_{a⁻¹} Q_a†``, for ``G_2``
    the group inverse of ``I − D_22`` (:func:`_group_solve`, the inverse
    the certificate already holds).  So ``Q_a = (B̂_{a⁻¹}⁻¹ Y_a)†``, with
    ``B̂⁻¹`` from the twin's cached ``B_roots``; ``r_4`` is taken at that
    scale from :func:`_fixed_forms`, not balanced.  Where no ``Q`` exists
    the residual is of order one.  ``d`` is the package's
    :func:`build_D`, built here when not given.

    A vanishing ``E`` (the maps cancel identically, which happens on a
    genuine sub-family) gives the zero tuple, the canonical exact
    solution.

    Raises
    ------
    UndecidedError
        "ill-conditioned cluster" when ``E`` does not vanish and the
        ``D_22`` certificate, whose inverse gives ``Q``, cannot decide
        (its entry of :attr:`DMatrix.clusters` is ``None``).
    """
    nsys = pkg.original
    if frob_tuple(pkg.E.values()) < 1e-12 * frob_tuple(nsys.B):
        Q = tuple(np.zeros((n, m), dtype=complex)
                  for n, m in zip(pkg.twin.dims, nsys.dims))
        return Q, q_residual(pkg, Q)
    if d is None:
        d = build_D(pkg)
    if d.clusters[1] is None:
        raise UndecidedError("ill-conditioned cluster")
    r4 = _flat(_fixed_forms(pkg, 4)[0])
    c = moment_step(nsys, _moment(d, 4, r4))[d.masks[2]]
    Y = _unvec_tuple(_group_solve(d, 2, c), pkg.twin.dims, nsys.dims)
    roots = pkg.twin.B_roots
    Q = tuple((roots[a ^ 1][1] @ (roots[a ^ 1][1] @ y)).conj().T
              for a, y in enumerate(Y))
    return Q, q_residual(pkg, Q)


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

    The candidate of :func:`q_least_squares` is accepted only if its
    relative residual is below :data:`Q_ACCEPT_TOL`; it is then
    antisymmetrized (``Q_a ← (Q_a − Q_{a⁻¹}†)/2``, again a solution) and
    re-verified by substitution.  Raises :class:`UndecidedError`
    ("ill-conditioned cluster") where :func:`q_least_squares` does.
    """
    return _accept_Q(pkg, *q_least_squares(pkg))


def _accept_Q(pkg, Q, residual):
    """The acceptance steps of :func:`solve_Q` on a candidate ``Q`` with
    relative residual ``residual``."""
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

    Assembles the twin package, whose ``D_22`` certificate decides
    inequivalent twins and whose SVD gives ``K`` otherwise, and the block
    matrix; analyzes the eigenvalue-1 cluster, which reads ``undecided``
    where the certificate cannot decide or a closed-form fixed pair does
    not hold; reads the Q candidate off the row-2 resolvent and accepts it
    by substitution; evaluates the trace obstruction when twins are
    equivalent; and cross-checks the relations the class label implies.
    Inconsistencies downgrade the verdict to ``undecided`` with
    diagnostics instead of forcing a label.  The multiplicity is 4 for
    equivalent twins and 2 otherwise by construction (rows 1 and 4 count
    the Perron roots, rows 2 and 3 count ``K``), and ``N_23 = 0`` keeps
    ``dim_one ≥ 2`` for equivalent twins.  ``rho_D`` is the transfer
    radius, :attr:`~freerep.systems.NormalizedSystem.rho_certificate`, 1
    by construction: ``ρ(D_22) ≤ √(ρ(D_11) ρ(D_44)) = 1``.
    """
    diagnostics = []
    pkg = twin_package(nsys)
    d = build_D(pkg)
    rho_d = nsys.rho_certificate
    try:
        eig = eigen_one(d)
    except UndecidedError as err:
        return SpectralReport(
            rho_D=rho_d, mult_one=-1, dim_one=-1,
            twins_equivalent=pkg.equivalent, class_label="undecided",
            predicted_exponent=0, trace_condition_value=0j,
            trace_condition_scale=0.0, Q=None,
            realization_verdict="undecided", q_residual=np.nan, gap=np.nan,
            diagnostics=[str(err)], package=pkg,
        )
    equivalent = pkg.equivalent
    ls_Q, ls_residual = q_least_squares(pkg, d)
    q = _accept_Q(pkg, ls_Q, ls_residual)
    trace_val, trace_scale = (0j, 0.0)
    if equivalent:
        trace_val, trace_scale = trace_condition(pkg)
    undecided = ("undecided", 0, "undecided")
    label, exponent, verdict = _CLASS_TABLE.get((equivalent, eig.dim_one),
                                                undecided)
    if eig.ambiguous:
        diagnostics.append(
            "rank decision ambiguous near threshold; singular values of "
            "N: %s, threshold %.1e" % (eig.sv_profile, eig.threshold))
    elif label == "undecided":
        diagnostics.append("no class for d=%d" % eig.dim_one)
    else:
        # Q solvability must match the class: present for AI/BI only
        if label in ("AI", "BI") and q is None:
            diagnostics.append("class %s requires a Q tuple but none found "
                               "(residual %.2e)" % (label, ls_residual))
        if label in ("AII", "BII") and q is not None:
            diagnostics.append("class %s forbids a Q tuple but one was "
                               "found" % label)
        if equivalent:
            rel = trace_ratio(trace_val, trace_scale)
            if (rel < 1e-6) != (eig.dim_one >= 3):
                diagnostics.append(
                    "trace condition (relative %.2e) inconsistent with d=%d"
                    % (rel, eig.dim_one))
    if diagnostics:
        label, exponent, verdict = undecided
    return SpectralReport(
        rho_D=rho_d, mult_one=eig.mult_one, dim_one=eig.dim_one,
        twins_equivalent=equivalent, class_label=label,
        predicted_exponent=exponent, trace_condition_value=trace_val,
        trace_condition_scale=trace_scale, Q=q,
        realization_verdict=verdict, q_residual=ls_residual, gap=eig.gap,
        diagnostics=diagnostics, sv_profile=eig.sv_profile, package=pkg,
    )
