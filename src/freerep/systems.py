"""Matrix systems over the free-group alphabet and their normalization.

A system assigns a complex space of dimension ``n_a`` to every letter and a
block ``H[b, a]`` to every ordered letter pair with ``ba ≠ e``.  This module
validates systems, tests irreducibility, applies the transfer operator, and
produces the normalized form (unit transfer radius, positive definite fixed
forms with the trace convention ``Σ_a tr(B_a) = Σ_a n_a``).  The transfer
operator maps Hermitian tuples to Hermitian tuples, so :func:`normalize`
works with its real matrix in an orthonormal Hermitian basis, and makes no
eigensolve: a lazy power iteration stopped on its Collatz–Wielandt bracket
and Newton steps give the Perron root, bordered linear systems give the
forms of the system and of its twin, and one inverse in the frame where
``B = I`` certifies the Perron gap.  The same data decide irreducibility."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import freegroup

# Fixed-point residual and positivity thresholds, relative to the tuple
# Frobenius norm; double-precision headroom for block dims up to ~64.
TOL_FIX = 1e-10
TOL_PD = 1e-9
# The Perron eigenvalue is simple when the next eigenvalue of T sits
# farther than TOL_SIMPLE·ρ from ρ.
TOL_SIMPLE = 1e-8
# Relative singular-value floor of the path spans in is_irreducible.
TOL_SPAN = 1e-10


class UndecidedError(RuntimeError):
    """A certification could not be completed at the working tolerance."""


class MatrixSystem:
    """Letter dimensions plus one complex block per ordered letter pair.

    Parameters
    ----------
    alphabet : freegroup.Alphabet
    dims : sequence of int
        ``dims[c]`` is the dimension attached to letter ``c``.
    blocks : mapping ``(b, a) -> array_like``
        Block of shape ``(dims[b], dims[a])`` for each pair with
        ``b != inv(a)``.  Missing pairs are treated as zero blocks (and
        flagged by :func:`validate`).
    """

    def __init__(self, alphabet, dims, blocks):
        self.alphabet = alphabet
        self.dims = tuple(int(n) for n in dims)
        if len(self.dims) != alphabet.size:
            raise ValueError("need one dimension per letter")
        self.blocks = {
            (int(b), int(a)): np.ascontiguousarray(m, dtype=complex)
            for (b, a), m in blocks.items()
        }

    def pairs(self):
        """All ordered letter pairs ``(b, a)`` with ``ba ≠ e``."""
        size = self.alphabet.size
        for b in range(size):
            for a in range(size):
                if b != a ^ 1:
                    yield b, a

    def h(self, b, a):
        """Block for the pair ``(b, a)``; zeros where none is stored."""
        block = self.blocks.get((b, a))
        if block is None:
            return np.zeros((self.dims[b], self.dims[a]), dtype=complex)
        return block

    def scaled(self, factor):
        """New system with every block multiplied by ``factor``."""
        return MatrixSystem(
            self.alphabet,
            self.dims,
            {key: factor * m for key, m in self.blocks.items()},
        )

    def __repr__(self):
        return "MatrixSystem(k=%d, dims=%s)" % (self.alphabet.k, list(self.dims))


def validate(sys):
    """Check structural soundness; return a list of violations.

    An empty list means valid.  Violations are reported with letter-pair
    locations and never raised, so callers can present all of them at once.
    """
    alpha = sys.alphabet
    violations = []
    for c in alpha.letters:
        if sys.dims[c] < 1:
            violations.append(
                "dimension for letter %s must be positive" % alpha.letter_name(c)
            )
    for (b, a), block in sys.blocks.items():
        loc = "(%s, %s)" % (alpha.letter_name(b), alpha.letter_name(a))
        if not (0 <= b < alpha.size and 0 <= a < alpha.size):
            violations.append("letter pair %s out of range" % loc)
            continue
        if block.shape != (sys.dims[b], sys.dims[a]):
            violations.append(
                "shape violation at %s: got %s, dims say %s"
                % (loc, block.shape, (sys.dims[b], sys.dims[a]))
            )
            continue
        if not np.all(np.isfinite(block)):
            violations.append("non-finite entries at %s" % loc)
            continue
        if b == a ^ 1 and np.any(block):
            violations.append("nonzero at ba = e: %s" % loc)
    for b, a in sys.pairs():
        if not np.any(sys.blocks.get((b, a))):
            violations.append(
                "zero block at (%s, %s): blocks must vanish only at ba = e"
                % (alpha.letter_name(b), alpha.letter_name(a))
            )
    return violations


def _new_rows(rows, cand):
    """Orthonormal rows spanning what the rows of ``cand`` add to the span
    of the orthonormal ``rows``.

    ``cand`` is projected off ``rows`` twice (classical Gram–Schmidt with
    reorthogonalization), and the new rows are the right singular vectors
    of what is left whose singular value exceeds ``TOL_SPAN·max(1, σ)``,
    with ``σ`` the largest singular value of ``cand`` (``σ`` alone while
    ``rows`` is empty).  That is the scale of the stacked ``[rows; cand]``,
    whose largest singular value lies between ``max(1, σ)`` and ``√2``
    times it.  ``‖cand‖_F/√rank ≤ σ ≤ ‖cand‖_F`` brackets ``σ``, which is
    computed only when a singular value falls inside the bracket."""
    floor = 1.0 if len(rows) else 0.0
    left = cand
    for _ in range(2):
        left = left - (left @ rows.conj().T) @ rows
    _, s, vh = np.linalg.svd(left, full_matrices=False)
    norm = np.linalg.norm(cand)
    lo, cut = (TOL_SPAN * max(floor, x)
               for x in (norm / np.sqrt(min(cand.shape)), norm))
    if np.any((s > lo) & (s <= cut)):
        cut = TOL_SPAN * max(floor, np.linalg.norm(cand, 2))
    return vh[s > cut]


def is_irreducible(sys):
    """Decide irreducibility via the path-span density criterion.

    For every ordered letter pair ``(a, b)`` the span of all path products
    from ``V_a`` to ``V_b`` (seeded with the identity on diagonal pairs) is
    grown until it stabilizes; the system is irreducible iff every span
    fills the whole ``n_b·n_a``-dimensional space of maps.  By Burnside's
    theorem that holds exactly when the blocks leave no proper tuple of
    subspaces invariant.  :func:`normalize` reaches the same decision from
    the Perron data of the transfer operator; this criterion stays as the
    independent check, and the random generators sample with it.

    A round visits the pairs in order and takes the span of ``(b, a)`` to
    its sum with ``H[b|c]·span(c, a)`` over the letters ``c``, each span as
    it stands when the pair is visited.  Each span is kept as orthonormal
    rows, in the order they were found, and only the rows of ``span(c,
    a)`` that ``(b, a)`` has not yet carried, its frontier, are multiplied:
    the products of the older rows are already in the span of ``(b, a)``.
    So every round ends with the spans that multiplying all rows of every
    span would give (the oracle of the tests does that), at a fraction of
    the products and decompositions.  The new rows come from
    :func:`_new_rows`.  A span that fills its space can grow no further,
    so it is final: it is skipped.  The test returns ``True`` once every
    span is full and ``False`` after a round that adds no row.

    Raises
    ------
    UndecidedError
        If the spans fail to stabilize within ``Σ n_a² + 2k`` rounds.
    """
    size = sys.alphabet.size
    dims = sys.dims
    # into[b]: the nonzero blocks H[b|c], which carry span(c, a) into (b, a)
    into = [[(c, sys.blocks[(b, c)]) for c in range(size)
             if b != c ^ 1 and np.any(sys.blocks.get((b, c)))]
            for b in range(size)]
    # span[b][a]: orthonormal rows spanning vec'd maps V_a -> V_b
    span = [[np.zeros((0, dims[b] * dims[a]), dtype=complex)
             for a in range(size)] for b in range(size)]
    for a in range(size):
        span[a][a] = np.eye(dims[a], dtype=complex).reshape(1, -1) / np.sqrt(
            dims[a])
    # carried[b, c, a]: the rows of span(c, a) already carried into (b, a)
    carried = {}
    growing = [(b, a) for a in range(size) for b in range(size)
               if len(span[b][a]) < dims[b] * dims[a]]
    l_max = sum(n * n for n in dims) + 2 * size
    for _ in range(l_max):
        grew = False
        for b, a in growing:
            cand = []
            for c, h in into[b]:
                rows = span[c][a]
                start = carried.get((b, c, a), 0)
                if len(rows) > start:
                    cand.append(np.matmul(
                        h, rows[start:].reshape(-1, dims[c], dims[a])
                    ).reshape(-1, dims[b] * dims[a]))
                    carried[b, c, a] = len(rows)
            if not cand:
                continue
            new = _new_rows(span[b][a], np.vstack(cand))
            if len(new):
                span[b][a] = np.vstack([span[b][a], new])
                grew = True
        growing = [(b, a) for b, a in growing
                   if len(span[b][a]) < dims[b] * dims[a]]
        if not growing:
            return True
        if not grew:
            return False
    raise UndecidedError("irreducibility undecided: spans did not stabilize")


def transfer_apply(sys, t):
    """Apply the transfer operator to a tuple of per-letter matrices.

    Returns the tuple ``(Σ_b H_ba† t_b H_ba)_a``.  Linear in ``t``; maps
    Hermitian tuples to Hermitian tuples and PSD tuples to PSD tuples.
    """
    for c in sys.alphabet.letters:
        if t[c].shape != (sys.dims[c], sys.dims[c]):
            raise ValueError("form tuple shape mismatch at letter %d" % c)
    out = []
    for a in sys.alphabet.letters:
        acc = np.zeros((sys.dims[a], sys.dims[a]), dtype=complex)
        for b in sys.alphabet.letters:
            if b == a ^ 1:
                continue
            h = sys.blocks.get((b, a))
            if h is not None:
                acc += h.conj().T @ t[b] @ h
        out.append(acc)
    return tuple(out)


def transfer_matrix(sys):
    """Dense matrix of the transfer operator on row-major vec'd tuples."""
    dims = sys.dims
    sizes = [n * n for n in dims]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offs[-1])
    mat = np.zeros((total, total), dtype=complex)
    for a in sys.alphabet.letters:
        for b in sys.alphabet.letters:
            if b == a ^ 1:
                continue
            h = sys.blocks.get((b, a))
            if h is None:
                continue
            mat[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] += kron(
                h.conj().T, h.T
            )
    return mat


def kron(p, q):
    """``np.kron`` of two matrices, bit for bit, as one broadcast product:
    on the small blocks of this package ``np.kron``'s own overhead costs
    several times the product."""
    return (p[:, None, :, None] * q[None, :, None, :]).reshape(
        p.shape[0] * q.shape[0], p.shape[1] * q.shape[1])


def spectral_radius_T(sys):
    """Spectral radius of the transfer operator: its Perron root, found and
    refined by :func:`_perron_frame` as in :func:`normalize`.  ``T`` is a
    positive map, so its largest eigenvalue modulus is itself an
    eigenvalue."""
    if not any(np.any(m) for m in sys.blocks.values()):
        raise ValueError("degenerate system: all blocks zero")
    basis = _hermitian_basis(sys.dims)
    rho, _ = _perron_frame(sys, _hermitian_matrix(transfer_matrix(sys), basis),
                           basis)
    return float(rho)


def frob_tuple(t):
    """Frobenius norm of a tuple of matrices."""
    return float(np.sqrt(sum(np.vdot(m, m).real for m in t)))


def identity_tuple(dims):
    return tuple(np.eye(n, dtype=complex) for n in dims)


def _hermitian_basis(dims):
    """An orthonormal basis of the Hermitian tuples, on row-major vec'd
    tuples, as index data.

    Position ``p = (j, l)`` of letter ``c`` carries ``E_jj`` on the
    diagonal, ``(E_jl + E_lj)/√2`` above it and ``i(E_lj − E_jl)/√2``
    below it.  Basis vector ``p`` is ``own[p]`` at ``p`` plus
    ``other[p]`` at ``swap[p]``, the transposed position of the same
    letter; ``diagonal`` marks the ``E_jj``, so it holds the coordinates
    of the identity tuple.  The basis is the unitary ``Q`` with these two
    nonzeros per column, which is never formed.
    """
    swap, own, diagonal = [], [], []
    start = 0
    for n in dims:
        j, l = np.divmod(np.arange(n * n), n)
        swap.append(start + l * n + j)
        own.append(np.select([j == l, j < l], [1.0, np.sqrt(0.5)],
                             -1j * np.sqrt(0.5)))
        diagonal.append(j == l)
        start += n * n
    own, diagonal = np.concatenate(own), np.concatenate(diagonal)
    other = np.where(diagonal, 0.0, own.conj())
    return np.concatenate(swap), own, other, diagonal


def _hermitian_matrix(t, basis):
    """``Re(Qᴴ t Q)`` for the basis ``Q`` of :func:`_hermitian_basis`:
    the real matrix of a map of Hermitian tuples, by index arithmetic,
    contiguous for the matrix-vector products of :func:`_perron_root`.
    Overwrites ``t``, so that one more matrix of its size is all the
    memory it takes besides the result."""
    swap, own, other, _ = basis
    moved = t[:, swap]
    moved *= other
    t *= own
    t += moved
    np.take(t, swap, axis=0, out=moved)
    moved *= other.conj()[:, None]
    t *= own.conj()[:, None]
    t += moved
    return np.ascontiguousarray(t.real)


def _hermitian_tuple(x, dims, basis):
    """The Hermitian tuple ``Q x`` of real coordinates ``x``; its entries
    across the diagonal are conjugate to the last bit."""
    swap, own, other, _ = basis
    vec = own * x + (other * x)[swap]
    offs = np.cumsum((0,) + tuple(n * n for n in dims))
    return tuple(vec[offs[c]:offs[c + 1]].reshape(n, n)
                 for c, n in enumerate(dims))


def _block_index(dims):
    """Flat positions of the entries of each letter's ``n_a × n_a`` block,
    row-major, in a block-diagonal matrix of side ``Σ_a n_a``."""
    offs = np.cumsum((0,) + tuple(dims))
    side = int(offs[-1])
    return side, np.concatenate([((o + np.arange(n))[:, None] * side + o
                                  + np.arange(n)).ravel()
                                 for o, n in zip(offs, dims)])


def _collatz_wielandt(x, image, basis, blocks):
    """The bracket ``λ_min ≤ ρ ≤ λ_max`` of the spectral radius of ``T``
    from a definite ``X`` (coordinates ``x``) and ``T(X)`` (``image``).

    It holds the extreme eigenvalues of ``X^{-1/2} T(X) X^{-1/2}`` over
    all letters; ``λ_min X ≤ T(X) ≤ λ_max X`` holds for the powers of
    ``T`` too, which bounds ``ρ`` on both sides for any positive map.  The
    letters are taken at once, as block-diagonal matrices (``blocks``
    from :func:`_block_index`): one Cholesky factor ``X = L Lᴴ`` and one
    ``eigvalsh`` of ``L⁻¹ T(X) L⁻ᴴ``.
    """
    swap, own, other, _ = basis
    side, index = blocks
    both = np.zeros((2, side * side), dtype=complex)
    pair = np.stack([x, image])
    both[:, index] = own * pair + (other * pair)[:, swap]
    inverse = np.linalg.inv(np.linalg.cholesky(both[0].reshape(side, side)))
    vals = np.linalg.eigvalsh(
        inverse @ both[1].reshape(side, side) @ inverse.conj().T)
    return float(vals[0]), float(vals[-1])


def _perron_root(t_h, dims, basis):
    """The Perron root ``ρ`` of ``T`` and its right vector ``x``, ``uᵀx =
    1``, from its real matrix ``t_h`` in Hermitian coordinates, with no
    eigensolve.

    A lazy power iteration ``x ← (x + T_h x/ρ̂)/2``, ``ρ̂ = uᵀT_h x`` for
    ``uᵀx = 1``, runs from the identity tuple ``u``: the map ``I + T/ρ̂``
    has the Perron vector of ``T`` as its dominant one even where ``T``
    has other eigenvalues of modulus ``ρ``.  Its Collatz–Wielandt bracket
    (:func:`_collatz_wielandt`), checked after 0, 1, 3, 7, … steps, only
    narrows; the iteration stops once the bracket is narrower than
    ``√TOL_SIMPLE·λ_max``, stops narrowing, or cannot be taken because the
    iterate is no longer definite.  Newton steps on ``(T_h −
    ρI)x = 0``, ``uᵀx = 1`` then start from ``ρ = λ_max``, each one solve
    with the bordered Jacobian ``[[T_h − ρI, −x], [uᵀ, 0]]``.  The first
    is inverse iteration shifted at ``λ_max ≥ ρ``, where ``ρ`` is the
    eigenvalue nearest the shift; near a simple root each step about
    squares the error (T. Noda, *Numer. Math.* 17, 1971), so from the
    bracket one step reaches ``TOL_SIMPLE`` and the next the rounding.
    The steps stop after a correction to ``ρ`` below ``√ε·ρ``, whose
    square is at the rounding of ``ρ``, or when a correction no longer
    shrinks, which is then not taken.  A wrong root is not certified
    here: :func:`normalize` tests its forms.
    """
    u = basis[3].astype(float)
    x = u / u.sum()
    blocks = _block_index(dims)
    width, step, check = np.inf, 0, 0
    while True:
        image = t_h @ x
        if step == check:
            try:
                lo, rho = _collatz_wielandt(x, image, basis, blocks)
            except np.linalg.LinAlgError:
                # the iterate is no longer definite: its limit, the
                # Perron form, is singular, and Newton takes over
                break
            if rho - lo <= np.sqrt(TOL_SIMPLE) * rho or not rho - lo < width:
                break
            width, check = rho - lo, 2 * check + 1
        x = (x + image / (u @ image)) / 2
        step += 1
    n = len(u)
    jacobian = np.zeros((n + 1, n + 1))
    jacobian[:n, :n] = t_h
    jacobian[n, :n] = u
    diagonal = np.diagonal(t_h).copy()
    last = np.inf
    while True:
        jacobian[range(n), range(n)] = diagonal - rho
        jacobian[:n, n] = -x
        correction = np.linalg.solve(
            jacobian, np.append(rho * x - t_h @ x, 1.0 - u @ x))
        if not abs(correction[n]) < last:
            return rho, x
        x = x + correction[:n]
        rho += correction[n]
        last = abs(correction[n])
        if last <= np.sqrt(np.finfo(float).eps) * rho:
            return rho, x


def _form_roots(t):
    """``(t_a^{1/2}, t_a^{-1/2})`` for each letter, one ``eigh`` each, and
    ``(λ_min, λ_max)`` over the letters from those ``eigh``.

    Eigenvalues below ``TOL_PD·‖t‖_F`` are raised to it in the roots,
    which changes only a form that fails the positivity test of
    :func:`normalize`: its frame is then near that of the form, and the
    certificate stays sound (:func:`_perron_certificate`)."""
    floor = TOL_PD * frob_tuple(t)
    roots = []
    lo, hi = np.inf, -np.inf
    for m in t:
        vals, vecs = np.linalg.eigh(m)
        lo, hi = min(lo, vals[0]), max(hi, vals[-1])
        vals = np.sqrt(np.maximum(vals, floor))
        roots.append(((vecs * vals) @ vecs.conj().T,
                      (vecs / vals) @ vecs.conj().T))
    return tuple(roots), (float(lo), float(hi))


def _unit_trace(t):
    """A Hermitian tuple scaled to trace ``Σ_a n_a``."""
    scale = sum(len(m) for m in t) / sum(np.trace(m).real for m in t)
    return tuple(m * scale for m in t)


def _bordered_solve(t, rho, u):
    """``(x, μ)`` with ``A [x; μ] = e`` for the bordered matrix ``A =
    [[T − ρI, u], [uᵀ, 0]]``; for ``Tᵀ`` this is the left vector."""
    n = len(u)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = t
    border[range(n), range(n)] -= rho
    border[:n, n] = border[n, :n] = u
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    solution = np.linalg.solve(border, unit)
    return solution[:n], solution[n]


def _perron_certificate(t_w, y, u):
    """A lower bound on the Perron gap of ``T`` from its matrix ``t_w``,
    of root 1, in the frame where ``B = I``, with no eigensolve.

    There ``T_w`` fixes the identity tuple ``u`` and ``T_wᵀ`` fixes ``y``,
    the left Perron form ``S`` in that frame.  Deflated by Brauer's
    theorem, ``A = I − T_w + u yᵀ/(yᵀu)`` has the eigenvalues ``1 − μ``
    for the others ``μ`` and 1 for the root, so ``1/‖A⁻¹‖_F ≤ σ_min(A) ≤
    |1 − μ|``: the bound of :func:`~freerep.spectral.mixed_certificate`,
    for ``T`` (Trefethen & Embree, *Spectra and Pseudospectra*, 2005).  Any
    gauge of the system reaches that frame up to a unitary one, which
    keeps ``‖A⁻¹‖_F``, so the bound is a property of the system.  It is
    sound in any frame where ``y`` is the left Perron vector: Brauer's
    theorem holds for any ``u`` with ``yᵀu ≠ 0``.  An exactly singular
    ``A`` gives 0.
    """
    deflated = np.outer(u, y / (y @ u))
    deflated -= t_w
    deflated[range(len(u)), range(len(u))] += 1.0
    try:
        return 1.0 / float(np.linalg.norm(np.linalg.inv(deflated)))
    except np.linalg.LinAlgError:
        return 0.0


def _perron_frame(sys, t_h, basis):
    """The Perron root ``ρ`` of ``T``, refined in the frame where Newton's
    vector is the identity, with that frame.

    :func:`_perron_root` gives ``ρ`` and its right vector ``B₀`` from
    ``t_h``, the matrix of ``T`` in Hermitian coordinates.  The gauge ``g_a
    = B₀^{1/2}`` takes the system, divided by ``√ρ``, to the frame where
    ``B₀ = I``, and its matrix ``T_w`` there is assembled once.  The
    bordered solves of ``T_w`` at root 1 and of its transpose give the
    right and left vectors ``x`` and ``y`` there, and the two-sided
    Rayleigh quotient ``1 − μ/yᵀx`` refines ``ρ``: in that well-conditioned
    frame it is at the rounding even where Newton's root in the input's
    basis is not.  Returns ``ρ`` and ``(roots, T_w/root, x, y)``, with
    ``roots`` the ``(g_a, g_a⁻¹)`` of :func:`_form_roots` and ``T_w/root``
    of root 1.

    Raises
    ------
    numpy.linalg.LinAlgError
        when a Newton or bordered matrix is exactly singular.
    """
    rho, x = _perron_root(t_h, sys.dims, basis)
    roots, _ = _form_roots(_hermitian_tuple(x, sys.dims, basis))
    t_w = _hermitian_matrix(transfer_matrix(MatrixSystem(
        sys.alphabet, sys.dims,
        {(b, a): roots[b][0] @ m @ roots[a][1] / np.sqrt(rho)
         for (b, a), m in sys.blocks.items()})), basis)
    u = basis[3].astype(float)
    right, mu = _bordered_solve(t_w, 1.0, u)
    left, _ = _bordered_solve(t_w.T, 1.0, u)
    # the two-sided Rayleigh quotient 1 + yᵀ(T_w − I)x/yᵀx
    root = 1.0 - mu / (left @ right)
    return rho * root, (roots, t_w / root, right, left)


def _fix_residual(sys, t):
    image = transfer_apply(sys, t)
    return frob_tuple(tuple(i - m for i, m in zip(image, t))) / frob_tuple(t)


@dataclass(frozen=True)
class NormalizedSystem:
    """A validated irreducible system scaled to unit transfer radius.

    Attributes
    ----------
    system : MatrixSystem
        The rescaled system (blocks divided by the square root of the
        original transfer radius).
    B : tuple of ndarray
        The positive definite fixed forms, trace-normalized so that
        ``Σ_a tr(B_a) = Σ_a n_a``.
    B_hat : tuple of ndarray
        The twin system's fixed forms, with the same convention.
    perron_gap : float
        A certified lower bound on the distance to 1 of every transfer
        eigenvalue but the root (:func:`_perron_certificate`), taken in
        the frame where ``B = I``; the twin shares it.  It bounds rows 1
        and 4 of ``D`` in ``spectral``.
    fix_residual : float
        Relative fixed-point residual of ``B``, the radius certificate.
    b_min_eig : float
        Smallest eigenvalue over the ``B_a``.
    B_roots : tuple
        ``(B_a^{1/2}, B_a^{-1/2})`` for each letter: the gauge ``g_a =
        B_a^{1/2}`` to the frame where ``B = I``.
    b_hat_min_eig, B_hat_roots
        The same for ``B̂``, which are the twin's ``b_min_eig`` and
        ``B_roots``.
    """

    system: MatrixSystem
    B: tuple
    B_hat: tuple
    perron_gap: float
    fix_residual: float
    b_min_eig: float
    B_roots: tuple
    b_hat_min_eig: float
    B_hat_roots: tuple

    @property
    def rho_certificate(self):
        """Transfer radius of the stored system: 1 by construction, since
        :func:`normalize` divides by the Perron root and certifies it by
        the fixed-point residual of ``B``."""
        return 1.0

    @property
    def alphabet(self):
        return self.system.alphabet

    @property
    def dims(self):
        return self.system.dims

    def h(self, b, a):
        return self.system.h(b, a)

    @cached_property
    def E(self):
        """The pairing maps of :func:`~freerep.twin.e_maps`, computed once
        and shared by the twin package and the sphere-sum recursion."""
        from .twin import e_maps
        return e_maps(self)

    @cached_property
    def charts(self):
        """The charts of the depth subspaces that ``intertwiner`` reads off
        this system, keyed by kind and arguments: each is built once, on
        first use, and lives as long as the system."""
        return {}

    @cached_property
    def moment_operator(self):
        """The sphere-sum step's :func:`~freerep.series.moment_operator`,
        built once and shared with the operator ``D`` of ``spectral``."""
        from .series import moment_operator
        return moment_operator(self)


def _not_irreducible(gap, ends=None):
    """The error of a system that fails the Perron test: its relative
    Perron gap and, where the forms exist, the ratios ``λ_min/λ_max``
    of both (``ends`` from :func:`_form_roots`)."""
    ratios = ("%.2e (B) and %.2e (twin)" % tuple(lo / hi for lo, hi in ends)
              if ends else "undefined (no unique Perron vectors)")
    return ValueError(
        "system is not irreducible: Perron gap %.2e (needs > %.0e), "
        "form ratios lambda_min/lambda_max %s" % (gap, TOL_SIMPLE, ratios))


def normalize(sys):
    """Scale to unit transfer radius and compute the fixed forms, with no
    eigensolve.

    ``T`` maps Hermitian tuples to Hermitian tuples, so in the orthonormal
    Hermitian basis ``Q`` of :func:`_hermitian_basis` its matrix ``T_h =
    Qᴴ T Q`` is real, of the same side ``Σ_a n_a²``; it is read off the
    transfer matrix by index arithmetic, two nonzeros per column of ``Q``.
    :func:`_perron_root` finds ``ρ`` and its right vector ``B₀`` by a lazy
    power iteration and Newton steps.  With ``u`` the identity tuple in
    these coordinates (``uᵀx = Σ_a tr X_a``), the bordered matrix

        ``A = [[T − ρI, u], [uᵀ, 0]]``

    gives the right Perron vector from ``A [x; μ] = e`` and the left one
    from ``Aᵀ`` (H. B. Keller's bordering lemma, *Applications of
    Bifurcation Theory*, 1977).  ``A`` is nonsingular exactly when ``ρ`` is
    simple and neither Perron vector has trace zero.  For a positive map
    the Perron vectors of a simple ``ρ`` are semidefinite forms, of
    positive trace, so ``A`` is nonsingular exactly when ``ρ`` is simple:
    unlike ``T − ρI``, it is not singular at the root it solves for.

    :func:`_perron_frame`, which :func:`spectral_radius_T` shares, takes
    the system, divided by ``√ρ``, to the frame where ``B₀ = I`` by the
    gauge ``g_a = B₀^{1/2}``; there ``A`` of ``T_w`` at root 1 and its
    transpose give ``x`` and ``y``, from which the two-sided Rayleigh
    quotient ``1 − μ/yᵀx`` refines ``ρ``, and ``B = g x g`` has a residual
    at the rounding of that well-conditioned frame even where the input's
    basis is not.
    ``S``, the left vector, is solved with ``T_hᵀ`` at the refined ``ρ``,
    which keeps its residual small in the input's basis.
    The twin's transfer operator is the Hilbert–Schmidt adjoint ``T†``
    with letters relabelled ``c ↦ c⁻¹``, so the twin's forms are ``B̂_c =
    S_{c⁻¹}``, with no transpose.  Blocks are divided by ``√ρ``; both
    tuples have trace ``Σ_a n_a``.

    The same data decide irreducibility: the system is irreducible exactly
    when ``ρ`` is a simple eigenvalue of ``T`` and ``B`` and ``B̂`` are both
    positive definite.  This is Perron–Frobenius theory for completely
    positive maps (D. E. Evans and R. Høegh-Krohn, *J. London Math. Soc.*
    17 (1978); D. R. Farenick, *Proc. Amer. Math. Soc.* 124 (1996)).
    :func:`is_irreducible` tests that path products span every space of
    maps ``V_a → V_b``; by Burnside's theorem that holds exactly when the
    blocks leave no proper tuple of subspaces ``W_a ⊆ V_a`` invariant.  If
    such a ``W`` is invariant, ``T†`` keeps the forms supported on ``W`` and
    has a semidefinite eigenvector ``Y`` among them; pairing with a definite
    ``B`` puts its eigenvalue at ``ρ``, and a simple ``ρ`` makes ``Y`` a
    multiple of ``S``, which is then singular.  As for nonnegative
    matrices, a block-triangular system has a singular ``B`` or ``B̂``, and
    a direct sum has a non-simple ``ρ`` or a singular form.

    Simplicity is certified by :func:`_perron_certificate`, one inverse of
    the deflated ``I − T_w + u yᵀ/(yᵀu)`` in that frame (the one where ``B
    = I``, to the rounding of Newton's root), whose bound must exceed
    ``TOL_SIMPLE``.  It is kept as ``perron_gap``, the bound of ``D_44``
    and (on the twin) ``D_11`` in ``spectral``, and taken before the
    positivity test, so that a system that fails that test still reports
    its gap.  The
    positivity test also makes a wrong root fail loudly: a definite
    eigenvector of a positive map belongs to its spectral radius.  The
    fixed-point residual ``ε`` of ``B`` is checked against ``TOL_FIX``.
    The map ``T/ρ`` is positive and ``B`` is definite, so this certifies
    its radius: ``|ρ(T/ρ) − 1| ≤ ε‖B‖_F / λ_min(B)``.

    Raises
    ------
    ValueError
        Invalid input, or "system is not irreducible" followed by the
        certified Perron gap (``nan`` where a Newton or bordered matrix is
        exactly singular) and the ratios ``λ_min/λ_max`` of both forms
        (undefined when the gap fails).
    UndecidedError
        The fixed-point residual of ``B`` exceeds ``TOL_FIX``, so the
        radius of ``T/ρ`` is not certified.
    """
    violations = validate(sys)
    if violations:
        raise ValueError("invalid system: " + "; ".join(violations))
    basis = _hermitian_basis(sys.dims)
    u = basis[3].astype(float)
    t_h = _hermitian_matrix(transfer_matrix(sys), basis)
    try:
        rho, frame = _perron_frame(sys, t_h, basis)
        left_raw, _ = _bordered_solve(t_h.T, rho, u)
    except np.linalg.LinAlgError:
        raise _not_irreducible(np.nan) from None
    roots, t_w, right, left = frame
    gap = _perron_certificate(t_w, left, u)
    B = tuple(g @ m @ g for (g, _), m in
              zip(roots, _hermitian_tuple(right, sys.dims, basis)))
    B = _unit_trace(tuple((m + m.conj().T) / 2 for m in B))
    S = _unit_trace(_hermitian_tuple(left_raw, sys.dims, basis))
    B_hat = tuple(S[c ^ 1] for c in sys.alphabet.letters)
    if not gap > TOL_SIMPLE:
        raise _not_irreducible(gap)
    (B_roots, ends), (B_hat_roots, ends_hat) = (_form_roots(B),
                                                 _form_roots(B_hat))
    if not all(lo > TOL_PD * frob_tuple(t)
               for (lo, _), t in ((ends, B), (ends_hat, B_hat))):
        raise _not_irreducible(gap, (ends, ends_hat))
    scaled = sys.scaled(1.0 / np.sqrt(rho))
    residual = _fix_residual(scaled, B)
    if residual > TOL_FIX:
        raise UndecidedError("fixed-point residual %.2e of B exceeds %.0e"
                             % (residual, TOL_FIX))
    return NormalizedSystem(scaled, B, B_hat, gap, residual, ends[0], B_roots,
                            ends_hat[0], B_hat_roots)
