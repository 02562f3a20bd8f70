"""Explicit intertwiner between a representation and its twin.

Builds the pair-block operator J with its closed-form inverse, verifies
the unitarity identities on the depth-N subspaces, exposes the full
family of intertwiners, splits the equivalent-twin case into the ±1
eigenspaces of the associated involution, and bounds the rank of the
cross-cone compressions that drive the realization count.

The checks work on dense charts of the depth-N subspaces W_N.  The chart
of a pair operator comes from one pass of matrix-valued messages over the
ball, shared by all of its columns; a translation's columns are local and
are walked one by one.  The finite-rank profile takes one walk per letter
pair, with the transfer products of each depth stacked by last letter.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .freegroup import multiply
from .functions import MuSummand, _spread, canonicalize
from .twin import e_lookup, e_maps

# Hard cap on the dimension of any materialized W_N coordinate space.
W_DIM_LIMIT = 30000


# ---------------------------------------------------------------------------
# coordinates of the depth-N subspaces


@dataclass(frozen=True)
class WLayout:
    """Coordinate chart of the depth-``n`` subspace W_n.

    One contiguous block per forward edge ``(x, b)``, ordered sphere
    first, letter second; the block carries the ``V_b`` coefficient.
    """

    nsys: object
    n: int
    keys: tuple
    offsets: dict
    dim: int


def w_layout(nsys, n):
    keys = []
    offsets = {}
    pos = 0
    for x in nsys.alphabet.sphere(n):
        for b in nsys.alphabet.letters:
            if x and b == x[-1] ^ 1:
                continue
            keys.append((x, b))
            offsets[(x, b)] = pos
            pos += nsys.dims[b]
    if pos > W_DIM_LIMIT:
        raise ValueError("W_%d dimension %d exceeds the memory budget" % (n, pos))
    return WLayout(nsys=nsys, n=n, keys=tuple(keys), offsets=offsets, dim=pos)


def _form_diag(layout):
    """Gram matrix of the canonical basis: block diagonal of the forms."""
    G = np.zeros((layout.dim, layout.dim), dtype=complex)
    for x, b in layout.keys:
        o = layout.offsets[(x, b)]
        d = layout.nsys.dims[b]
        G[o : o + d, o : o + d] = layout.nsys.B[b]
    return G


def _add_summand(layout, col, s):
    """Add the chart coefficients of the summand ``s`` into ``col``.

    The forward edges of W_n are the words of the sphere of radius
    ``n + 1``, so the values of ``s`` there are its coefficients.  Added
    to a zero column they give, bit for bit, the coefficients
    :func:`canonicalize` gives (it also adds each value to zero).
    """
    for y, val in _spread(layout.nsys, s, layout.n + 1).items():
        o = layout.offsets[(y[:-1], y[-1])]
        col[o : o + len(val)] += val


# ---------------------------------------------------------------------------
# edge-pair operators

# A pair operator sends the coefficient v at the forward edge (x, xb) to
# same[b] v on the same oriented edge plus flip[b] v on the reversed one;
# J, its inverse, the family members, and the splitting involution are
# all of this shape.


def _apply_edge_operator(f, out_nsys, same, flip):
    summands = []
    for (x, b), v in f.coeffs.items():
        sv = same[b] @ v
        if np.linalg.norm(sv):
            summands.append(MuSummand(x=x, letter=b, v=sv))
        fv = flip[b] @ v
        if np.linalg.norm(fv):
            summands.append(MuSummand(x=x + (b,), letter=b ^ 1, v=fv))
    return canonicalize(out_nsys, summands, f.depth)


def _pair_operator_matrix(nsys_in, nsys_out, n, same, flip):
    """Chart matrix of an edge-pair operator on W_n.

    The columns at the forward edge ``(x, xb)`` hold ``same[b]`` in their
    own slot, plus the reversed summand ``μ[xb, x, flip[b]]``, whose walk
    starts at the head ``x`` as if it came from ``xb`` and never steps
    back there.  All columns share one pass of matrix-valued messages
    over the tree, each column carried by the message entries of its own
    index; the columns reach a vertex along one path each, so every
    entry is still the single product of blocks along its geodesic.

    Up: the message a vertex sends to its parent depends only on its
    radius and last letter, and covers the consecutive columns of the
    heads below it, so one message per letter and radius serves the
    whole sphere.  Down, depth first: the message from ``z`` to a child
    ``zc`` is ``H[c|z_last]`` times the message from the parent, plus
    the up messages of the other children, stepped to ``c``; at radius
    ``n`` it is the chart block of the forward edge ``(z, c)``.
    """
    lin = w_layout(nsys_in, n)
    lout = w_layout(nsys_out, n)
    letters = nsys_out.alphabet.letters
    h = nsys_out.h
    M = np.zeros((lout.dim, lin.dim), dtype=complex)
    # below[r][d]: the message a vertex of radius r holds from its child
    # along d, over the columns of the heads behind that child (on the
    # sphere of radius n the child is the reversed edge itself);
    # side[r][c, d]: that message stepped on to the neighbour along c
    below = [None] * n + [dict(enumerate(flip))]
    side = [None] * (n + 1)
    for r in range(n, -1, -1):
        side[r] = {
            (c, d): h(c, d ^ 1) @ below[r][d]
            for c in letters
            for d in letters
            if c != d
        }
        if r:
            below[r - 1] = {
                l: np.hstack([side[r][l ^ 1, d] for d in letters if d != l ^ 1])
                for l in letters
            }

    def down(z, last, lo, msg):
        # lo: first column of the heads behind z; msg: the message from
        # the parent of z (None at the identity)
        r = len(z)
        kids = [d for d in letters if not z or d != last ^ 1]
        for c in kids:
            if msg is None:
                m = np.zeros((nsys_out.dims[c], lin.dim), dtype=complex)
            else:
                m = h(c, last) @ msg
            pos = lo
            for d in kids:
                width = below[r][d].shape[1]
                if d == c:
                    child_lo = pos
                else:
                    m[:, pos : pos + width] += side[r][c, d]
                pos += width
            if r == n:
                o = lout.offsets[(z, c)]
                M[o : o + nsys_out.dims[c]] += m
            else:
                down(z + (c,), c, child_lo, m)

    down((), None, 0, None)
    # added to the zero slot like every other entry, so a -0.0 in same
    # comes out as 0.0, as it does from a product with a unit vector
    for x, b in lin.keys:
        i = lin.offsets[(x, b)]
        o = lout.offsets[(x, b)]
        M[o : o + nsys_out.dims[b], i : i + nsys_in.dims[b]] += same[b]
    return M


def translation_matrix(nsys, y, n):
    """Chart matrix of ``π(y)`` from W_n into W_{n+1}: the basis column
    at the edge ``(x, xb)`` is the summand on ``(yx, yxb)``."""
    nsys.alphabet.check_word(y)
    lin = w_layout(nsys, n)
    lout = w_layout(nsys, n + 1)
    M = np.zeros((lout.dim, lin.dim), dtype=complex)
    for x, b in lin.keys:
        col0 = lin.offsets[(x, b)]
        yx = multiply(y, x)
        for i in range(nsys.dims[b]):
            e = np.zeros(nsys.dims[b], dtype=complex)
            e[i] = 1.0
            s = MuSummand(x=yx, letter=b, v=e)
            if s.native_depth > n + 1:
                raise ValueError("translation target depth too small")
            _add_summand(lout, M[:, col0 + i], s)
    return M


def _commutation_residual(nsys, nsys_hat, d, op, op_next, gram_next):
    """Largest function norm, over the generators ``y`` and the W_d basis
    columns, of the defect ``op_{d+1}·T_y − T̂_y·op_d``.

    ``op`` and ``op_next`` are the chart matrices of one operator on W_d
    and W_{d+1}; ``gram_next`` is the form of its target chart on
    W_{d+1}.
    """
    worst = 0.0
    for y in nsys.alphabet.generators:
        ty = translation_matrix(nsys, (y,), d)
        tyhat = ty
        if nsys_hat is not nsys:
            tyhat = translation_matrix(nsys_hat, (y,), d)
        defect = op_next @ ty - tyhat @ op
        sq = (defect.conj() * (gram_next @ defect)).sum(0)
        worst = max(worst, float(np.sqrt(max(sq.real.max(), 0.0))))
    return worst


# ---------------------------------------------------------------------------
# the intertwiner


@dataclass(frozen=True)
class Intertwiner:
    """Pair-block intertwiner with closed-form inverse data.

    ``blocks[a]`` is ``[[−Q_a, B_{a⁻¹}], [B_a, −Q_{a⁻¹}]]`` on
    ``V_a ⊕ V_{a⁻¹}`` for each even letter; ``Qhat``/``Bhat`` are the
    inverse-side tuples, ``Ehat`` the pairing maps of the twin weighted
    by ``Bhat``.  ``bhat_scale`` relates ``Bhat`` to the twin's
    trace-normalized form, and ``unitary_scale`` is the positive scalar
    making the operator an isometry, fixed on W_1.
    """

    pkg: object
    Q: tuple
    Qhat: tuple
    Bhat: tuple
    Ehat: dict
    blocks: dict
    inv_blocks: dict
    bhat_scale: float
    bhat_residual: float
    unitary_scale: float


def _assemble(pkg, Q, B):
    """Closed-form inverse data for pair blocks built from (Q, B).

    Valid for any antisymmetric tuple ``Q_a† = −Q_{a⁻¹}`` and positive
    ``B``; the inverse blocks then invert the forward blocks exactly.
    """
    nsys = pkg.original
    tw = pkg.twin
    size = nsys.alphabet.size
    Binv = tuple(np.linalg.inv(m) for m in B)
    Bhat = tuple(
        np.linalg.inv(B[c ^ 1] + Q[c] @ Binv[c] @ Q[c].conj().T)
        for c in range(size)
    )
    Qhat = tuple(Binv[c] @ Q[c].conj().T @ Bhat[c] for c in range(size))
    scale = sum(np.trace(m).real for m in Bhat) / sum(
        np.trace(m).real for m in tw.B
    )
    resid = max(
        float(np.linalg.norm(Bhat[c] - scale * tw.B[c]) / np.linalg.norm(Bhat[c]))
        for c in range(size)
    )
    blocks = {}
    inv_blocks = {}
    for a in nsys.alphabet.generators:
        blocks[a] = np.block([[-Q[a], B[a ^ 1]], [B[a], -Q[a ^ 1]]])
        inv_blocks[a] = np.block(
            [[-Qhat[a], Bhat[a ^ 1]], [Bhat[a], -Qhat[a ^ 1]]]
        )
    Ehat = e_maps(dataclasses.replace(tw, B=Bhat))
    J = Intertwiner(
        pkg=pkg,
        Q=Q,
        Qhat=Qhat,
        Bhat=Bhat,
        Ehat=Ehat,
        blocks=blocks,
        inv_blocks=inv_blocks,
        bhat_scale=float(scale),
        bhat_residual=resid,
        unitary_scale=1.0,
    )
    lin = w_layout(nsys, 1)
    lout = w_layout(tw, 1)
    J1 = _pair_operator_matrix(nsys, tw, 1, tuple(-m for m in Q), B)
    pulled = J1.conj().T @ _form_diag(lout) @ J1
    t = float(np.sqrt(np.trace(_form_diag(lin)).real / np.trace(pulled).real))
    return dataclasses.replace(J, unitary_scale=t)


def build_J(report, pkg=None):
    """Assemble J from a classification report that carries a Q tuple.

    Raises
    ------
    ValueError
        when the report's class admits no intertwiner.
    """
    if pkg is None:
        pkg = report.package
    if report.Q is None:
        raise ValueError(
            "Q missing: class %s admits no intertwiner" % report.class_label
        )
    Q = tuple(np.asarray(m, dtype=complex) for m in report.Q.Q)
    return _assemble(pkg, Q, pkg.original.B)


def apply_J(J, f):
    """Image of a canonical family over the original system."""
    if f.system is not J.pkg.original:
        raise ValueError("system mismatch")
    return _apply_edge_operator(
        f, J.pkg.twin, tuple(-m for m in J.Q), J.pkg.original.B
    )


def apply_J_inverse(J, f):
    """Image of a canonical family over the twin under the closed inverse."""
    if f.system is not J.pkg.twin:
        raise ValueError("system mismatch")
    return _apply_edge_operator(
        f, J.pkg.original, tuple(-m for m in J.Qhat), J.Bhat
    )


def closed_inverse_residual(J):
    """Blockwise relative gap between closed-form and numeric inverses."""
    worst = 0.0
    for a, blk in J.blocks.items():
        num = np.linalg.inv(blk)
        worst = max(
            worst,
            float(np.linalg.norm(J.inv_blocks[a] - num) / np.linalg.norm(num)),
        )
    return worst


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class InverseRelations:
    """Residuals of the left-inverse identities, one entry per letter.

    ``identity``: Q̂_a Q_a + B̂_{a⁻¹} B_a = Id;
    ``mixed_left``: B̂_a Q_a + Q̂_{a⁻¹} B_a = 0;
    ``mixed_right``: Q_{a⁻¹} B̂_a + B_a Q̂_a = 0.
    """

    identity: tuple
    mixed_left: tuple
    mixed_right: tuple

    @property
    def max(self):
        return max(self.identity + self.mixed_left + self.mixed_right)


def verify_inverse_relations(J):
    B = J.pkg.original.B
    r_id = []
    r_left = []
    r_right = []
    for a in J.pkg.original.alphabet.letters:
        eye = np.eye(J.pkg.original.dims[a])
        r_id.append(
            float(np.linalg.norm(J.Qhat[a] @ J.Q[a] + J.Bhat[a ^ 1] @ B[a] - eye))
        )
        r_left.append(
            float(np.linalg.norm(J.Bhat[a] @ J.Q[a] + J.Qhat[a ^ 1] @ B[a]))
        )
        r_right.append(
            float(np.linalg.norm(J.Q[a ^ 1] @ J.Bhat[a] + B[a] @ J.Qhat[a]))
        )
    return InverseRelations(
        identity=tuple(r_id), mixed_left=tuple(r_left), mixed_right=tuple(r_right)
    )


def fin_residual(J, word_max=5):
    """Telescoped compatibility of (Q̂, Ê) along reduced words.

    Checks, for every reduced word of length 2..``word_max``, that the
    transfer product conjugating Q̂ between the endpoints differs from
    the twin-side product by exactly the accumulated Ê corrections.
    Shares prefixes, so the cost is one matrix product per tree node.
    """
    nsys = J.pkg.original
    tw = J.pkg.twin
    worst = 0.0

    def extend(first, last, fullh, fullhat, acc, length):
        nonlocal worst
        for c in nsys.alphabet.letters:
            if c == last ^ 1:
                continue
            nh = nsys.h(c, last) @ fullh
            nhat = tw.h(c, last) @ fullhat
            nacc = (
                nsys.h(c, last) @ acc
                + e_lookup(J.Ehat, tw.dims, c, last) @ fullhat
            )
            gap = nh @ J.Qhat[first] - J.Qhat[c] @ nhat + nacc
            worst = max(worst, float(np.linalg.norm(gap)))
            if length + 1 < word_max:
                extend(first, c, nh, nhat, nacc, length + 1)

    for a in nsys.alphabet.letters:
        extend(
            a,
            a,
            np.eye(nsys.dims[a], dtype=complex),
            np.eye(tw.dims[a], dtype=complex),
            np.zeros((nsys.dims[a], tw.dims[a]), dtype=complex),
            1,
        )
    return worst


@dataclass(frozen=True)
class IsometryReport:
    """Unitarity evidence for an intertwiner on the depth subspaces."""

    gram_residuals: tuple
    intertwine_residual: float
    fin_residual: float
    w_dims: tuple


def verify_isometry_and_intertwining(J, depth=3, word_max=5):
    """Isometry Grams on W_1..W_depth, commutation with the generators
    on a W_{depth−1} basis, and the telescoped word identities.

    The Gram check compares the chart Gram with its pullback under the
    unitarized operator entrywise; the commutation check measures the
    function norm of the defect on every basis column.
    """
    nsys = J.pkg.original
    tw = J.pkg.twin
    same = tuple(-m for m in J.Q)
    flip = nsys.B
    t2 = J.unitary_scale**2
    grams = []
    dims = []
    mats = {}
    ghat = {}
    for n in range(1, depth + 1):
        lin = w_layout(nsys, n)
        lout = w_layout(tw, n)
        dims.append(lin.dim)
        mats[n] = _pair_operator_matrix(nsys, tw, n, same, flip)
        ghat[n] = _form_diag(lout)
        gap = t2 * (mats[n].conj().T @ ghat[n] @ mats[n]) - _form_diag(lin)
        grams.append(float(np.abs(gap).max()))
    return IsometryReport(
        gram_residuals=tuple(grams),
        intertwine_residual=_commutation_residual(
            nsys, tw, depth - 1, mats[depth - 1], mats[depth], ghat[depth]
        ),
        fin_residual=fin_residual(J, word_max),
        w_dims=tuple(dims),
    )


# ---------------------------------------------------------------------------
# the full family of intertwiners


def general_intertwiner_family(J, lam, c):
    """Member (λ, c) of the family of all intertwiners, with its W_2
    commutation residual.

    The diagonal entries are −λQ_a + icK_a and the off-diagonal ones
    λB_a; without an equivalence tuple only the λ line exists.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    pkg = J.pkg
    if c != 0 and pkg.K is None:
        raise ValueError(
            "Y_a must be λB_a and the diagonal admits no c-term: "
            "the twins are inequivalent"
        )
    size = pkg.original.alphabet.size
    if c != 0:
        Q = tuple(lam * J.Q[a] - 1j * c * pkg.K[a] for a in range(size))
    else:
        Q = tuple(lam * J.Q[a] for a in range(size))
    B = tuple(lam * m for m in pkg.original.B)
    member = _assemble(pkg, Q, B)
    nsys = pkg.original
    tw = pkg.twin
    same = tuple(-m for m in Q)
    residual = _commutation_residual(
        nsys,
        tw,
        2,
        _pair_operator_matrix(nsys, tw, 2, same, B),
        _pair_operator_matrix(nsys, tw, 3, same, B),
        _form_diag(w_layout(tw, 3)),
    )
    return member, residual


# ---------------------------------------------------------------------------
# splitting in the equivalent-twin case


@dataclass(frozen=True, kw_only=True)
class SplitReport:
    """Eigenspace decomposition data of the splitting involution.

    A field that :func:`split` did not reach before a failed check keeps
    its placeholder: ``nan``, or an empty dict.
    """

    c: float = float("nan")
    lambda_plus: complex = complex("nan")
    lambda_minus: complex = complex("nan")
    p_plus: dict = field(default_factory=dict)
    p_minus: dict = field(default_factory=dict)
    subspace_dims: dict = field(default_factory=dict)
    quad_residual: float = float("nan")
    eig_spread: float = float("nan")
    unimodularity: float
    idempotency: float = float("nan")
    orthogonality: float = float("nan")
    completeness: float = float("nan")
    involution_residual: float = float("nan")
    form_hermiticity: float = float("nan")
    commutation_residual: float = float("nan")
    diagnostics: list


def _blkdiag(mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[0]
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def _pair_parts(nsys, blocks):
    """``(same, flip)`` tuples of the pair operator whose block on
    ``V_a ⊕ V_{a⁻¹}`` is ``blocks[a]``, for each generator ``a``."""
    same = {}
    flip = {}
    for a in nsys.alphabet.generators:
        na = nsys.dims[a]
        blk = blocks[a]
        same[a] = blk[:na, :na]
        flip[a] = blk[na:, :na]
        same[a ^ 1] = blk[na:, na:]
        flip[a ^ 1] = blk[:na, na:]
    letters = nsys.alphabet.letters
    return tuple(same[c] for c in letters), tuple(flip[c] for c in letters)


def split(J, K=None):
    """Split the representation along the ±1 eigenspaces of 𝒦⁻¹J̃.

    Extracts the real parameter c from the two eigenvalue clusters of
    M = 𝒦⁻¹J (J unitarized), validates the quadratic relation
    M² + icM = Id, then rescales to the involution with ±1 spectrum and
    returns its spectral projections with all consistency residuals.
    Inconsistencies are reported in ``diagnostics`` rather than raised.
    """
    pkg = J.pkg
    if K is None:
        K = pkg.K
    if K is None:
        raise ValueError("splitting requires equivalent twins")
    nsys = pkg.original
    t = J.unitary_scale
    diagnostics = []
    kblk = {}
    mmat = {}
    eigs = []
    for a in nsys.alphabet.generators:
        kblk[a] = _blkdiag([K[a], K[a ^ 1]])
        mmat[a] = np.linalg.solve(kblk[a], t * J.blocks[a])
        eigs.extend(np.linalg.eigvals(mmat[a]))
    eigs = np.asarray(eigs)
    unimod = float(np.abs(np.abs(eigs) - 1.0).max())
    if unimod > 1e-6:
        diagnostics.append(
            "eigenvalues of M not unimodular (max deviation %.2e)" % unimod
        )
    plus = eigs[eigs.real > 0]
    minus = eigs[eigs.real <= 0]
    if len(plus) == 0 or len(minus) == 0:
        diagnostics.append("eigenvalues of M do not form two clusters")
        return SplitReport(unimodularity=unimod, diagnostics=diagnostics)
    lam_p = complex(plus.mean())
    lam_m = complex(minus.mean())
    spread = float(
        max(np.abs(plus - lam_p).max(), np.abs(minus - lam_m).max())
    )
    if spread > 1e-6:
        diagnostics.append("eigenvalue clusters not tight (spread %.2e)" % spread)
    cval = 1j * (lam_p + lam_m)
    if abs(cval.imag) > 1e-8:
        diagnostics.append("c not real (imaginary part %.2e)" % abs(cval.imag))
    c = float(cval.real)
    quad = 0.0
    for a in nsys.alphabet.generators:
        m = mmat[a]
        quad = max(
            quad,
            float(np.linalg.norm(m @ m + 1j * c * m - np.eye(m.shape[0]))),
        )
    if abs(c) >= 2:
        diagnostics.append("|c| = %.6f >= 2: discriminant not positive" % abs(c))
        return SplitReport(
            c=c,
            lambda_plus=lam_p,
            lambda_minus=lam_m,
            quad_residual=quad,
            eig_spread=spread,
            unimodularity=unimod,
            diagnostics=diagnostics,
        )
    rescale = 2.0 / np.sqrt(4.0 - c * c)
    p_plus = {}
    p_minus = {}
    subspace_dims = {}
    idem = orth = compl = invol = formh = 0.0
    cal = {}
    for a in nsys.alphabet.generators:
        # the shift (ic/2)𝒦 completes M to an involution: with the
        # quadratic M² + icM = Id, (M + ic/2)² = (1 − c²/4) Id
        jtilde = rescale * (t * J.blocks[a] + (1j * c / 2.0) * kblk[a])
        calj = np.linalg.solve(kblk[a], jtilde)
        cal[a] = calj
        eye = np.eye(calj.shape[0])
        pp = (eye + calj) / 2.0
        pm = (eye - calj) / 2.0
        p_plus[a] = pp
        p_minus[a] = pm
        invol = max(invol, float(np.linalg.norm(calj @ calj - eye)))
        idem = max(
            idem,
            float(np.linalg.norm(pp @ pp - pp)),
            float(np.linalg.norm(pm @ pm - pm)),
        )
        orth = max(orth, float(np.linalg.norm(pp @ pm)))
        compl = max(compl, float(np.linalg.norm(pp + pm - eye)))
        gram = _blkdiag([nsys.B[a], nsys.B[a ^ 1]])
        formh = max(
            formh,
            float(np.linalg.norm(gram @ pp - pp.conj().T @ gram)),
            float(np.linalg.norm(gram @ pm - pm.conj().T @ gram)),
        )
        rp = int(round(np.trace(pp).real))
        rm = int(round(np.trace(pm).real))
        total = nsys.dims[a] + nsys.dims[a ^ 1]
        subspace_dims[a] = (rp, rm, total)
        if rp + rm != total:
            diagnostics.append(
                "projection ranks %d + %d do not fill the pair space %d"
                % (rp, rm, total)
            )
    # commutation of P± with the translations, on a W_2 basis; P_- = Id - P_+
    # commutes exactly when P_+ does
    same, flip = _pair_parts(nsys, p_plus)
    comm = _commutation_residual(
        nsys,
        nsys,
        2,
        _pair_operator_matrix(nsys, nsys, 2, same, flip),
        _pair_operator_matrix(nsys, nsys, 3, same, flip),
        _form_diag(w_layout(nsys, 3)),
    )
    return SplitReport(
        c=c,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        p_plus=p_plus,
        p_minus=p_minus,
        subspace_dims=subspace_dims,
        quad_residual=quad,
        eig_spread=spread,
        unimodularity=unimod,
        idempotency=idem,
        orthogonality=orth,
        completeness=compl,
        involution_residual=invol,
        form_hermiticity=formh,
        commutation_residual=comm,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# finite rank of the cross-cone compressions


@dataclass(frozen=True)
class FiniteRankReport:
    """Rank and Hilbert-Schmidt profile of 1_b J 1_a on W_1..W_nmax."""

    a: int
    b: int
    ranks: tuple
    hs_norms: tuple
    cap: int


def _rank_of(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.count_nonzero(sv > 1e-9 * sv[0]))


def finite_rank_check(J, a, b, nmax=6):
    """Rank profile of the compressed operator 1_b J 1_a over W_1..W_nmax.

    The compression of the W_n basis block at the edge ``(x, xd)``, with
    ``x`` in the cone of ``a``, is a root-edge family on ``b`` with the
    vector ``H[b|a⁻¹]·chain(xd)·B_d``, where ``chain`` is the transfer
    product along the word.  One walk to depth ``nmax + 1`` keeps the
    chains of each depth stacked by last letter and extends every stack
    by one batched product per letter transition; the blocks of depth
    ``n`` and their Hilbert-Schmidt traces come straight from the stacks
    of depth ``n + 1``.
    """
    if a == b:
        raise ValueError("letters must differ")
    nsys = J.pkg.original
    tw = J.pkg.twin
    letters = nsys.alphabet.letters
    pre = tw.h(b, a ^ 1)
    bb = tw.B[b]
    binv = tuple(np.linalg.inv(m) for m in nsys.B)
    # chains of the words of the current length that start with a,
    # stacked by last letter
    chains = {a: np.eye(tw.dims[a ^ 1], dtype=complex)[None]}
    ranks = []
    hs = []
    for _ in range(nmax):
        grown = {}
        for last, stack in chains.items():
            for c in letters:
                if c != last ^ 1:
                    grown.setdefault(c, []).append(
                        stack @ tw.h(last ^ 1, c ^ 1))
        chains = {c: np.concatenate(parts) for c, parts in grown.items()}
        cols = []
        hs2 = 0.0
        for d, stack in chains.items():
            blk = pre @ stack @ nsys.B[d]
            hs2 += float(np.vdot(blk, bb @ blk @ binv[d]).real)
            cols.append(blk.transpose(1, 0, 2).reshape(blk.shape[1], -1))
        ranks.append(_rank_of(np.hstack(cols)))
        hs.append(float(np.sqrt(max(hs2, 0.0))))
    return FiniteRankReport(
        a=a,
        b=b,
        ranks=tuple(ranks),
        hs_norms=tuple(hs),
        cap=J.pkg.twin.dims[b],
    )
