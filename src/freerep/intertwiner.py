"""Explicit intertwiner between a representation and its twin.

Builds the pair-block operator J with its closed-form inverse, verifies
the unitarity identities on the depth-N subspaces, exposes the full
family of intertwiners, splits the equivalent-twin case into the ±1
eigenspaces of the associated involution, and bounds the rank of the
cross-cone compressions that drive the realization count.

The checks work on dense charts of the depth-N subspaces W_N: the
coordinates and form of W_N, the inclusion W_N → W_{N+1} and the
translations by a letter, each built once per system and kept on it.
Every walk over the tree goes one radius at a time, with the blocks of
that radius padded to the largest letter dimension and stacked in
lexicographic order, so a step is one stacked product.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .functions import MuSummand, canonicalize
from .twin import e_maps

# Hard cap on the dimension of any materialized W_N coordinate space.
W_DIM_LIMIT = 30000


# ---------------------------------------------------------------------------
# charts of the depth-N subspaces, built once per system


def _charted(nsys, key, build):
    """``build()``, computed on first use and kept in ``nsys.charts`` under
    ``key``; a kept array is read-only, since every caller shares it."""
    charts = nsys.charts
    if key not in charts:
        chart = build()
        if isinstance(chart, np.ndarray):
            chart.flags.writeable = False
        charts[key] = chart
    return charts[key]


def _place(M, rows, cols, block):
    """Add ``block`` (or ``block[i]``) into ``M`` with its corner at
    ``(rows[i], cols[i])``, for every ``i`` at once."""
    r = rows[:, None, None] + np.arange(block.shape[-2])[:, None]
    c = cols[:, None, None] + np.arange(block.shape[-1])
    M[r, c] += block


@dataclass(frozen=True)
class WLayout:
    """Coordinate chart of the depth-``n`` subspace W_n.

    One contiguous block per forward edge ``(x, b)``, ordered sphere
    first, letter second, which is the lexicographic order of the words
    ``xb``; the block carries the ``V_b`` coefficient.  ``starts[i]`` is
    the first coordinate of key ``i`` (``starts[-1]`` is ``dim``) and
    ``letters[i]`` its letter.  Every key has ``2k − 1`` forward edges one
    radius out, consecutive: key ``i`` has the keys ``(2k − 1)i + p`` of
    W_{n+1}, ``p`` counting the letters after ``b`` in order.
    """

    n: int
    keys: tuple
    offsets: dict
    dim: int
    starts: np.ndarray
    letters: np.ndarray


def w_layout(nsys, n):
    """The chart of W_n, built once per system and depth."""
    return _charted(nsys, ("layout", n), lambda: _layout(nsys, n))


def _layout(nsys, n):
    keys = [(x, b) for x in nsys.alphabet.sphere(n)
            for b in nsys.alphabet.letters if not x or b != x[-1] ^ 1]
    letters = np.array([b for _, b in keys])
    starts = np.concatenate(([0], np.cumsum(np.take(nsys.dims, letters))))
    dim = int(starts[-1])
    if dim > W_DIM_LIMIT:
        raise ValueError("W_%d dimension %d exceeds the memory budget" % (n, dim))
    return WLayout(n=n, keys=tuple(keys),
                   offsets=dict(zip(keys, starts[:-1].tolist())), dim=dim,
                   starts=starts, letters=letters)


def _form_diag(nsys, n):
    """Gram matrix of the canonical basis of W_n, the block diagonal of the
    forms; built once per system and depth."""
    return _charted(nsys, ("form", n), lambda: _gram(nsys, n))


def _gram(nsys, n):
    lay = w_layout(nsys, n)
    G = np.zeros((lay.dim, lay.dim), dtype=complex)
    for b in nsys.alphabet.letters:
        at = lay.starts[:-1][lay.letters == b]
        _place(G, at, at, nsys.B[b])
    return G


def _inclusion(nsys, n):
    """Chart of the inclusion W_n → W_{n+1}: the block ``H[c|b]`` from
    ``(x, b)`` to ``(xb, c)``; built once per system and depth."""
    return _charted(nsys, ("inclusion", n), lambda: _step_chart(nsys, n))


def _step_chart(nsys, n):
    lin, lout = w_layout(nsys, n), w_layout(nsys, n + 1)
    letters = nsys.alphabet.letters
    P = np.zeros((lout.dim, lin.dim), dtype=complex)
    for b in letters:
        keys = np.flatnonzero(lin.letters == b)
        for p, c in enumerate(c for c in letters if c != b ^ 1):
            _place(P, lout.starts[(len(letters) - 1) * keys + p],
                   lin.starts[keys], nsys.h(c, b))
    return P


def translation_matrix(nsys, y, n):
    """Chart matrix of ``π(y)`` from W_n into W_{n+1}, for ``|y| ≤ 1``: the
    basis column at the edge ``(x, xb)`` is the summand on ``(yx, yxb)``.
    Built once per system, word and depth.

    Raises
    ------
    ValueError
        when ``|y| ≥ 2``: some column's summand then lies beyond W_{n+1}.
    """
    nsys.alphabet.check_word(y)
    if len(y) > 1:
        raise ValueError("translation target depth too small")
    return _charted(nsys, ("translation", tuple(y), n),
                    lambda: _translation(nsys, tuple(y), n))


def _translation(nsys, y, n):
    step = _inclusion(nsys, n)
    if not y:
        return step
    lin, lout = w_layout(nsys, n), w_layout(nsys, n + 1)
    kids = nsys.alphabet.size - 1

    def span(lay, c):
        # the coordinates of the keys whose word starts with c
        per = kids ** lay.n
        return slice(lay.starts[c * per], lay.starts[(c + 1) * per])

    def outside(lay, c):
        cut = span(lay, c)
        return np.r_[0:cut.start, cut.stop:lay.dim]

    a = y[0]
    T = np.zeros_like(step)
    # the column at a word w = xb not starting with a⁻¹ is the unit
    # summand on the edge aw of W_{n+1}; those edges fill the span of a,
    # in the order of w
    T[np.arange(lout.dim)[span(lout, a)], outside(lin, a ^ 1)] = 1.0
    # the column at w = a⁻¹w' is the summand on w', two steps short of
    # W_{n+1}: the inclusion's column at w, its rows a⁻¹v read as the edges
    # v of W_n, is the summand at w' one step out
    back = span(lin, a ^ 1)
    T[:, back] += step[:, outside(lin, a)] @ step[span(lout, a ^ 1), back]
    return T


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


def _padded(mats, rows, cols):
    """The matrices ``mats`` stacked, each padded with zeros to ``rows ×
    cols``."""
    out = np.zeros((len(mats), rows, cols), dtype=complex)
    for i, m in enumerate(mats):
        out[i, : m.shape[0], : m.shape[1]] = m
    return out


def _padded_blocks(nsys):
    """``H[c|l]`` for all letters, zero at ``c = l⁻¹``, padded to the
    largest letter dimension ``D``: shape ``(2k, 2k, D, D)``."""
    letters = nsys.alphabet.letters
    D = max(nsys.dims)
    blocks = [nsys.h(c, l) if c != l ^ 1 else np.zeros((0, 0))
              for c in letters for l in letters]
    return _padded(blocks, D, D).reshape(
        len(letters), len(letters), D, D)


def _successors(size):
    """Row ``l``: the letters that may follow ``l`` in a reduced word."""
    return np.array([[c for c in range(size) if c != l ^ 1]
                     for l in range(size)])


def _pair_operator_matrix(nsys_in, nsys_out, n, same, flip):
    """Chart matrix of an edge-pair operator on W_n.

    The columns at the forward edge ``(x, xb)`` hold ``same[b]`` in their
    own slot, plus the reversed summand ``μ[xb, x, flip[b]]``, whose walk
    starts at the head ``x`` as if it came from ``xb`` and never steps
    back there.  All columns share one pass of matrix-valued messages
    over the tree, each column carried by the message entries of its own
    index; the columns reach a vertex along one path each, so every
    entry is still the single product of blocks along its geodesic.

    Rows and columns are padded to the largest letter dimension, so the
    heads behind each vertex of radius ``r`` fill one chunk of columns of
    a common width.  Up: the message a vertex sends on depends only on
    its radius and letters, so ``msgs[r][l, e]`` (for a vertex ending in
    ``l``) holds the messages of its children, each stepped on to the
    neighbour ``e``, side by side.  Down, breadth first: the messages on
    the edges of radius ``r``, stacked in the order of the W_r chart, go
    a radius out by one stacked product with the blocks ``H[c|z_last]``,
    and each vertex's children take the siblings' messages on its own
    chunk.  At radius ``n``, with ``same`` added on the diagonal and the
    padding dropped, they are the chart.
    """
    letters = np.arange(nsys_out.alphabet.size)
    kids = len(letters) - 1
    D, Din = max(nsys_out.dims), max(nsys_in.dims)
    H = _charted(nsys_out, ("padded",), lambda: _padded_blocks(nsys_out))
    after = _successors(len(letters))
    # block (e, d) is H[e|d⁻¹], which steps a message from d on to e
    turn = H[:, letters ^ 1]
    # below[d]: the message a vertex holds from its child along d, over
    # the heads behind that child (on the sphere of radius n the child is
    # the reversed edge itself)
    below = _padded(flip, D, Din)
    msgs = [None] * (n + 1)
    for r in range(n, 0, -1):
        side = (turn @ below)[:, after]
        msgs[r] = side.transpose(1, 0, 3, 2, 4).reshape(
            len(letters), len(letters), D, -1)
        below = msgs[r][letters, letters ^ 1]
    # the layers are contiguous, so their reshapes below are views
    layer = (turn @ below).transpose(0, 2, 1, 3).reshape(len(letters), D, -1)
    up = letters
    for r in range(1, n + 1):
        # each edge's children at once: blocks (edge, child), messages
        # broadcast over the children
        j = np.arange(len(up))
        layer = (H[after[up], up[:, None]] @ layer[:, None]).reshape(
            len(up) * kids, D, -1)
        layer.reshape(len(up), kids, D, len(up), -1)[j, :, :, j] += msgs[r][
            up[:, None], after[up]]
        up = after[up].ravel()
    j = np.arange(len(up))
    layer.reshape(len(up), D, len(up), Din)[j, :, j] += _padded(same, D, Din)[up]
    rows = (np.arange(D) < np.take(nsys_out.dims, up)[:, None]).ravel()
    cols = (np.arange(Din) < np.take(nsys_in.dims, up)[:, None]).ravel()
    M = layer.reshape(rows.size, cols.size)
    return M if rows.all() and cols.all() else M[np.ix_(rows, cols)]


def _commutation_residual(nsys, nsys_hat, d, op, op_next):
    """Largest function norm, over the generators ``y`` and the W_d basis
    columns, of the defect ``op_{d+1}·T_y − T̂_y·op_d``.

    ``op`` and ``op_next`` are the chart matrices of one operator on W_d
    and W_{d+1}, measured in the form of ``nsys_hat`` on W_{d+1}.
    """
    gram = _form_diag(nsys_hat, d + 1)
    worst = 0.0
    for y in nsys.alphabet.generators:
        defect = (op_next @ translation_matrix(nsys, (y,), d)
                  - translation_matrix(nsys_hat, (y,), d) @ op)
        sq = (defect.conj() * (gram @ defect)).sum(0)
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
    making the operator an isometry, ``t² = Σ_c tr B̂_c / Σ_c tr B_c``.
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
    ``tJ`` is an isometry when the closed inverse is ``t²J*``; for ``B =
    λ·(the system's form)`` (``λ = 1`` in :func:`build_J`) the reversed
    blocks of ``J*`` are ``λ``, and ``B̂`` is ``bhat_scale``, times the
    twin's form, so ``t² = bhat_scale/λ = Σ_c tr B̂_c / Σ_c tr B_c``.
    """
    nsys, tw = pkg.original, pkg.twin
    size = nsys.alphabet.size
    Binv = tuple(np.linalg.inv(m) for m in B)
    Bhat = tuple(np.linalg.inv(B[c ^ 1] + Q[c] @ Binv[c] @ Q[c].conj().T)
                 for c in range(size))
    Qhat = tuple(Binv[c] @ Q[c].conj().T @ Bhat[c] for c in range(size))
    bhat_trace = sum(np.trace(m).real for m in Bhat)
    scale = bhat_trace / sum(np.trace(m).real for m in tw.B)
    resid = max(float(np.linalg.norm(Bhat[c] - scale * tw.B[c])
                      / np.linalg.norm(Bhat[c])) for c in range(size))
    blocks = {a: np.block([[-Q[a], B[a ^ 1]], [B[a], -Q[a ^ 1]]])
              for a in nsys.alphabet.generators}
    inv_blocks = {a: np.block([[-Qhat[a], Bhat[a ^ 1]],
                               [Bhat[a], -Qhat[a ^ 1]]])
                  for a in nsys.alphabet.generators}
    Ehat = e_maps(dataclasses.replace(tw, B=Bhat))
    t = float(np.sqrt(bhat_trace / sum(np.trace(m).real for m in B)))
    return Intertwiner(pkg, Q, Qhat, Bhat, Ehat, blocks, inv_blocks,
                       float(scale), resid, t)


def build_J(report):
    """Assemble J from a classification report that carries a Q tuple.

    Raises
    ------
    ValueError
        when the report's class admits no intertwiner.
    """
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
    return _apply_edge_operator(f, J.pkg.twin, tuple(-m for m in J.Q),
                                J.pkg.original.B)


def apply_J_inverse(J, f):
    """Image of a canonical family over the twin under the closed inverse."""
    if f.system is not J.pkg.twin:
        raise ValueError("system mismatch")
    return _apply_edge_operator(f, J.pkg.original,
                                tuple(-m for m in J.Qhat), J.Bhat)


def closed_inverse_residual(J):
    """Blockwise relative gap between closed-form and numeric inverses."""
    worst = 0.0
    for a, blk in J.blocks.items():
        num = np.linalg.inv(blk)
        worst = max(worst, float(np.linalg.norm(J.inv_blocks[a] - num)
                                 / np.linalg.norm(num)))
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
    letters = J.pkg.original.alphabet.letters
    eye = [np.eye(n) for n in J.pkg.original.dims]
    return InverseRelations(
        identity=tuple(float(np.linalg.norm(
            J.Qhat[a] @ J.Q[a] + J.Bhat[a ^ 1] @ B[a] - eye[a]))
            for a in letters),
        mixed_left=tuple(float(np.linalg.norm(
            J.Bhat[a] @ J.Q[a] + J.Qhat[a ^ 1] @ B[a])) for a in letters),
        mixed_right=tuple(float(np.linalg.norm(
            J.Q[a ^ 1] @ J.Bhat[a] + B[a] @ J.Qhat[a])) for a in letters))


def fin_residual(J, word_max=5):
    """Telescoped compatibility of (Q̂, Ê) along reduced words.

    Checks, for every reduced word of length 2..``word_max``, that the
    transfer product conjugating Q̂ between the endpoints differs from
    the twin-side product by exactly the accumulated Ê corrections.  The
    words of each length are stacked in lexicographic order, padded to
    the largest letter dimension, each with three matrices: its chain
    times Q̂ of its first letter, its twin chain and the accumulated
    corrections.  A step is one stacked product, and each word's gap is
    normed on its own.
    """
    nsys, tw = J.pkg.original, J.pkg.twin
    size, D = nsys.alphabet.size, max(nsys.dims)
    H = _charted(nsys, ("padded",), lambda: _padded_blocks(nsys))
    Hhat = _charted(tw, ("padded",), lambda: _padded_blocks(tw))
    E = _padded([J.Ehat.get((c, l), np.zeros((0, 0))) for c in range(size)
                 for l in range(size)], D, D).reshape(size, size, D, D)
    Qhat = _padded(J.Qhat, D, D)
    after = _successors(size)
    chq, hat = Qhat, _padded([np.eye(m) for m in tw.dims], D, D)
    acc = np.zeros_like(Qhat)
    lasts = np.arange(size)
    worst = 0.0
    for _ in range(word_max - 1):
        # each word's children at once: blocks (word, child), stacks
        # broadcast over the children
        step = (after[lasts], lasts[:, None])
        acc = H[step] @ acc[:, None] + E[step] @ hat[:, None]
        chq = H[step] @ chq[:, None]
        hat = Hhat[step] @ hat[:, None]
        acc, chq, hat = (m.reshape(-1, D, D) for m in (acc, chq, hat))
        lasts = after[lasts].ravel()
        gap = chq - Qhat[lasts] @ hat + acc
        sq = (gap.real**2 + gap.imag**2).sum((1, 2))
        worst = max(worst, float(np.sqrt(sq.max())))
    return worst


@dataclass(frozen=True)
class IsometryReport:
    """Unitarity evidence for an intertwiner on the depth subspaces."""

    gram_residuals: tuple
    intertwine_residual: float
    fin_residual: float
    w_dims: tuple


def verify_isometry_and_intertwining(J, depth=1, word_max=5):
    """Isometry Grams on W_1..W_depth, commutation with the generators
    from W_{depth−1} to W_depth, and the telescoped word identities.

    The Gram check compares the chart Gram with its pullback under the
    unitarized operator entrywise; the commutation check measures the
    function norm of the defect on every basis column.

    Why depth 1 certifies J.  Let ``R_cb = Ĥ[c|b]Q_b + E_cb − Q_c H[c|b]``
    be the gap of the Q equation (``q_residual = ‖R‖/‖E‖``).  J's chart
    column at an edge is J of that one summand, exactly, and as ``B`` and
    ``B̂`` solve their fixed-point equations the chart inner products do
    not depend on the depth and the translations are isometries.  ``R``
    enters only where a summand is re-expanded one radius out: J before
    or after differs by ``R_cb v`` at the child edges ``(xb, c)``.  So,
    by induction over the tree, the W_{n+1} identity is the W_n one plus
    local terms.  Commutation W_n → W_{n+1}: a column that a generator
    moves outward is relabelled, exactly; one on the back branch moves
    inward and is re-expanded twice, two local terms at any ``n``.  Gram:
    an entry depends only on the relative position of its two edges;
    W_{n+1} adds pairs one step further apart, one local term per step
    through blocks that contract the forms.  With ``R = 0``, ``t²J*J``
    commutes with the irreducible π and is the identity on W_1 by the
    choice of ``t``, so at every depth.

    Hence the depth-``n`` Gram and commutation residuals are at most
    ``C·(q_residual + W_1 Gram residual)`` with ``C = 2``, plus chart
    rounding (about 1e-15).  The argument allows one term per geodesic
    step; measured, the far terms do not add up: with ``Q`` moved by an
    antisymmetric ``εP`` (``ε`` 1e-8 to 1e-4) on the seeded AI, BI and
    vanishing-E instances, the residuals at depths 1–3 read at most 1.5
    times that sum, a gate in the tests.  So ``freerep classify`` checks
    ``depth=1``.
    """
    nsys = J.pkg.original
    tw = J.pkg.twin
    same = tuple(-m for m in J.Q)
    t2 = J.unitary_scale**2
    mats = [_pair_operator_matrix(nsys, tw, n, same, nsys.B)
            for n in range(depth + 1)]
    grams = tuple(
        float(np.abs(t2 * (mats[n].conj().T @ _form_diag(tw, n) @ mats[n])
                     - _form_diag(nsys, n)).max())
        for n in range(1, depth + 1))
    return IsometryReport(
        gram_residuals=grams,
        intertwine_residual=_commutation_residual(
            nsys, tw, depth - 1, mats[depth - 1], mats[depth]),
        fin_residual=fin_residual(J, word_max),
        w_dims=tuple(w_layout(nsys, n).dim for n in range(1, depth + 1)),
    )


# ---------------------------------------------------------------------------
# the full family of intertwiners


def general_intertwiner_family(J, lam, c):
    """Member (λ, c) of the family of all intertwiners, with its W_0 →
    W_1 commutation residual (the bound of
    :func:`verify_isometry_and_intertwining` covers every depth).

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
    nsys, tw = pkg.original, pkg.twin
    same = tuple(-m for m in Q)
    return member, _commutation_residual(
        nsys, tw, 0, _pair_operator_matrix(nsys, tw, 0, same, B),
        _pair_operator_matrix(nsys, tw, 1, same, B))


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


def _blkdiag(m1, m2):
    z = np.zeros((m1.shape[0], m2.shape[1]), dtype=complex)
    return np.block([[m1, z], [z.T, m2]])


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
    diagnostics = []
    mmat = {}
    eigs = []
    for a in nsys.alphabet.generators:
        mmat[a] = np.linalg.solve(_blkdiag(K[a], K[a ^ 1]),
                                  J.unitary_scale * J.blocks[a])
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
    for m in mmat.values():
        quad = max(quad, float(np.linalg.norm(m @ m + 1j * c * m
                                              - np.eye(m.shape[0]))))
    reached = dict(c=c, lambda_plus=lam_p, lambda_minus=lam_m,
                   quad_residual=quad, eig_spread=spread,
                   unimodularity=unimod, diagnostics=diagnostics)
    if abs(c) >= 2:
        diagnostics.append("|c| = %.6f >= 2: discriminant not positive" % abs(c))
        return SplitReport(**reached)
    rescale = 2.0 / np.sqrt(4.0 - c * c)
    p_plus = {}
    p_minus = {}
    subspace_dims = {}
    idem = orth = compl = invol = formh = 0.0
    for a in nsys.alphabet.generators:
        # the shift (ic/2)𝒦 completes M to an involution: with the
        # quadratic M² + icM = Id, (M + ic/2)² = (1 − c²/4) Id, so
        # 𝒦⁻¹J̃ for J̃ = rescale·(tJ + (ic/2)𝒦) is read off M
        eye = np.eye(mmat[a].shape[0])
        calj = rescale * (mmat[a] + (1j * c / 2.0) * eye)
        pp = (eye + calj) / 2.0
        pm = (eye - calj) / 2.0
        p_plus[a] = pp
        p_minus[a] = pm
        invol = max(invol, float(np.linalg.norm(calj @ calj - eye)))
        idem = max(idem, float(np.linalg.norm(pp @ pp - pp)),
                   float(np.linalg.norm(pm @ pm - pm)))
        orth = max(orth, float(np.linalg.norm(pp @ pm)))
        compl = max(compl, float(np.linalg.norm(pp + pm - eye)))
        gram = _blkdiag(nsys.B[a], nsys.B[a ^ 1])
        formh = max(formh,
                    float(np.linalg.norm(gram @ pp - pp.conj().T @ gram)),
                    float(np.linalg.norm(gram @ pm - pm.conj().T @ gram)))
        rp = int(round(np.trace(pp).real))
        rm = int(round(np.trace(pm).real))
        total = nsys.dims[a] + nsys.dims[a ^ 1]
        subspace_dims[a] = (rp, rm, total)
        if rp + rm != total:
            diagnostics.append(
                "projection ranks %d + %d do not fill the pair space %d"
                % (rp, rm, total)
            )
    # commutation of P± with the translations, W_0 → W_1, which certifies
    # the pair operator P_+ as it does J (verify_isometry_and_intertwining);
    # P_- = Id - P_+ commutes exactly when P_+ does
    same, flip = _pair_parts(nsys, p_plus)
    comm = _commutation_residual(
        nsys, nsys, 0, _pair_operator_matrix(nsys, nsys, 0, same, flip),
        _pair_operator_matrix(nsys, nsys, 1, same, flip))
    return SplitReport(**reached, p_plus=p_plus, p_minus=p_minus,
                       subspace_dims=subspace_dims, idempotency=idem,
                       orthogonality=orth, completeness=compl,
                       involution_residual=invol, form_hermiticity=formh,
                       commutation_residual=comm)


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


def finite_rank_check(J, a, b, nmax=6):
    """Rank profile of the compressed operator 1_b J 1_a over W_1..W_nmax.

    The compression of the W_n basis block at the edge ``(x, xd)``, with
    ``x`` in the cone of ``a``, is a root-edge family on ``b`` with the
    vector ``H[b|a⁻¹]·chain(xd)·B_d``, where ``chain`` is the transfer
    product along the word; it involves neither Q nor the unitary scale,
    so the profile is one of the system, and ``rank ≤ cap = n_b`` holds
    by construction.  One walk from ``a`` to depth ``nmax + 1``, made once
    per system and kept on it, serves every target ``b``: it keeps the
    chains of each depth stacked, padded to the largest letter dimension,
    and extends them by one stacked product.
    """
    if a == b:
        raise ValueError("letters must differ")
    return _charted(J.pkg.original, ("finite rank", a, nmax),
                    lambda: _rank_walk(J.pkg, a, nmax))[b]


def _rank_walk(pkg, a, nmax):
    """The finite-rank reports of the start letter ``a``, for every target
    ``b``: at each depth, the ranks of the blocks ``pre_b·C``, with ``C``
    every ``chain·B_d`` side by side, from one stacked SVD (a rank counts
    the singular values above ``1e-9`` times the largest), and their norms
    ``tr(pre_b† B̂_b pre_b·G)``, with the Gram ``G = Σ chain·B_d·chain†``
    shared by the targets."""
    nsys, tw = pkg.original, pkg.twin
    letters = np.arange(nsys.alphabet.size)
    D, width = max(tw.dims), tw.dims[a ^ 1]
    H = _charted(tw, ("padded",), lambda: _padded_blocks(tw))
    after = _successors(len(letters))
    targets = letters[letters != a]
    pre = _padded([tw.h(b, a ^ 1) for b in targets], D, width)
    weight = (pre.conj().transpose(0, 2, 1)
              @ _padded([tw.B[b] for b in targets], D, D) @ pre)
    forms = _padded(nsys.B, D, D)
    # the chains of the words of the current length that start with a,
    # in lexicographic order, and their last letters
    chains = _padded([np.eye(width)], width, D)
    lasts = np.array([a])
    ranks, hs = [], []
    for _ in range(nmax):
        chains = (chains[:, None] @ H[lasts[:, None] ^ 1, after[lasts] ^ 1]
                  ).reshape(-1, width, D)
        lasts = after[lasts].ravel()
        cols, plain = (m.transpose(1, 0, 2).reshape(width, -1)
                       for m in (chains @ forms[lasts], chains))
        sv = np.linalg.svd(pre @ cols, compute_uv=False)
        ranks.append(np.count_nonzero(sv > 1e-9 * sv[:, :1], axis=1))
        hs2 = (weight * (cols @ plain.conj().T).T).sum((1, 2)).real
        hs.append(np.sqrt(np.maximum(hs2, 0.0)))
    return {int(b): FiniteRankReport(
        a=a, b=int(b), ranks=tuple(int(r[i]) for r in ranks),
        hs_norms=tuple(float(h[i]) for h in hs), cap=tw.dims[b])
        for i, b in enumerate(targets)}
