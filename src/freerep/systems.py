"""Matrix systems over the free-group alphabet and their normalization.

A system assigns a complex space of dimension ``n_a`` to every letter and a
block ``H[b, a]`` to every ordered letter pair with ``ba ≠ e``.  This module
validates systems, tests irreducibility, applies the transfer operator, and
produces the normalized form (unit transfer radius, positive definite fixed
forms with the trace convention ``Σ_a tr(B_a) = Σ_a n_a``).  The transfer
operator maps Hermitian tuples to Hermitian tuples, so :func:`normalize`
works with its real matrix in an orthonormal Hermitian basis: the
eigenvalues of that matrix give the radius and its spectrum, and one
bordered linear system and its transpose give the forms of the system and
of its twin, with no eigenvector computed.  The same data decide
irreducibility.
"""

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


def _span_basis(rows, extra):
    """Orthonormal row basis of span(rows ∪ extra); rows may be empty."""
    stack = [r for r in (rows, extra) if len(r)]
    mat = np.vstack(stack)
    # SVD keeps the dimension count robust against near-dependent products.
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, mat.shape[1]), dtype=complex)
    return vh[s > TOL_SPAN * s[0]]

def is_irreducible(sys):
    """Decide irreducibility via the path-span density criterion.

    For every ordered letter pair ``(a, b)`` the span of all path products
    from ``V_a`` to ``V_b`` (seeded with the identity on diagonal pairs) is
    grown until it stabilizes; the system is irreducible iff every span
    fills the whole ``n_b·n_a``-dimensional space of maps.  :func:`normalize`
    reaches the same decision from the Perron data of the transfer operator;
    this criterion stays as the independent check, and the random generators
    sample with it.

    Raises
    ------
    UndecidedError
        If the spans fail to stabilize within ``Σ n_a² + 2k`` rounds.
    """
    size = sys.alphabet.size
    dims = sys.dims
    # span[b][a]: orthonormal rows spanning vec'd maps V_a -> V_b.
    span = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            seed = (
                [np.eye(dims[a], dtype=complex).ravel()]
                if a == b
                else np.zeros((0, dims[b] * dims[a]), dtype=complex)
            )
            span[b][a] = _span_basis([], seed) if a == b else seed
    l_max = sum(n * n for n in dims) + 2 * sys.alphabet.size
    for _ in range(l_max):
        grew = False
        for a in range(size):
            for b in range(size):
                new_rows = []
                for c in range(size):
                    if b == c ^ 1 or not span[c][a].shape[0]:
                        continue
                    h = sys.blocks.get((b, c))
                    if h is None or not np.any(h):
                        continue
                    basis = span[c][a].reshape(-1, dims[c], dims[a])
                    new_rows.append(np.einsum("ij,rjk->rik", h, basis).reshape(
                        -1, dims[b] * dims[a]))
                if not new_rows:
                    continue
                before = span[b][a].shape[0]
                span[b][a] = _span_basis(span[b][a], np.vstack(new_rows))
                if span[b][a].shape[0] > before:
                    grew = True
        if not grew:
            return all(
                span[b][a].shape[0] == dims[b] * dims[a]
                for a in range(size)
                for b in range(size)
            )
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
    """Spectral radius of the transfer operator (largest eigenvalue modulus)."""
    if not any(np.any(m) for m in sys.blocks.values()):
        raise ValueError("degenerate system: all blocks zero")
    return float(np.max(np.abs(np.linalg.eigvals(transfer_matrix(sys)))))


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
    the real matrix of a map of Hermitian tuples, by index arithmetic.
    Overwrites ``t``, so that one more matrix of its size is all the
    memory it takes."""
    swap, own, other, _ = basis
    moved = t[:, swap]
    moved *= other
    t *= own
    t += moved
    np.take(t, swap, axis=0, out=moved)
    moved *= other.conj()[:, None]
    t *= own.conj()[:, None]
    t += moved
    return t.real


def _hermitian_form(x, dims, basis, target):
    """The Hermitian tuple ``Q x`` of real coordinates ``x``, scaled to
    trace ``target``; its entries across the diagonal are conjugate to
    the last bit."""
    swap, own, other, diagonal = basis
    x = x * (target / x[diagonal].sum())
    vec = own * x + (other * x)[swap]
    offs = np.cumsum((0,) + tuple(n * n for n in dims))
    return tuple(vec[offs[c]:offs[c + 1]].reshape(n, n)
                 for c, n in enumerate(dims))


def _spectrum_ends(t):
    """Smallest and largest eigenvalue over a tuple of Hermitian matrices."""
    ends = [np.linalg.eigvalsh(m)[[0, -1]] for m in t]
    return float(min(e[0] for e in ends)), float(max(e[1] for e in ends))


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
    transfer_spectrum : ndarray
        Eigenvalues of the stored system's transfer matrix, complex, taken
        from its real matrix in Hermitian coordinates, so non-real ones
        come in exact conjugate pairs; conjugated, the spectrum of
        ``D_44`` in ``spectral``.
    fix_residual : float
        Relative fixed-point residual of ``B``, the radius certificate.
    b_min_eig : float
        Smallest eigenvalue over the ``B_a``.
    """

    system: MatrixSystem
    B: tuple
    B_hat: tuple
    transfer_spectrum: np.ndarray
    fix_residual: float
    b_min_eig: float

    @classmethod
    def from_forms(cls, system, B, B_hat, transfer_spectrum):
        """Normalized system with known forms and transfer spectrum;
        measures the residual and the smallest eigenvalue of ``B``."""
        return cls(system, B, B_hat, transfer_spectrum,
                   _fix_residual(system, B), _spectrum_ends(B)[0])

    @property
    def rho_certificate(self):
        """Transfer radius of the stored system: 1 by construction."""
        return float(np.max(np.abs(self.transfer_spectrum)))

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
    def B_roots(self):
        """``(B_a^{1/2}, B_a^{-1/2})`` for each letter, one ``eigh`` each:
        the gauge ``g_a = B_a^{1/2}`` to the frame where ``B = I``."""
        roots = []
        for b in self.B:
            vals, vecs = np.linalg.eigh(b)
            roots.append(((vecs * np.sqrt(vals)) @ vecs.conj().T,
                          (vecs / np.sqrt(vals)) @ vecs.conj().T))
        return tuple(roots)

    @cached_property
    def moment_operator(self):
        """The sphere-sum step's :func:`~freerep.series.moment_operator`,
        built once and shared with the operator ``D`` of ``spectral``."""
        from .series import moment_operator
        return moment_operator(self)


def _not_irreducible(gap, ends=None):
    """The error of a system that fails the Perron test: its relative
    Perron gap and, where the forms exist, the ratios ``λ_min/λ_max``
    of both (``ends`` from :func:`_spectrum_ends`)."""
    ratios = ("%.2e (B) and %.2e (twin)" % tuple(lo / hi for lo, hi in ends)
              if ends else "undefined (no unique Perron vectors)")
    return ValueError(
        "system is not irreducible: Perron gap %.2e (needs > %.0e), "
        "form ratios lambda_min/lambda_max %s" % (gap, TOL_SIMPLE, ratios))


def normalize(sys):
    """Scale to unit transfer radius and compute the fixed forms.

    ``T`` maps Hermitian tuples to Hermitian tuples, so in the orthonormal
    Hermitian basis ``Q`` of :func:`_hermitian_basis` its matrix ``T_h =
    Qᴴ T Q`` is real, of the same side ``Σ_a n_a²``; it is read off the
    transfer matrix by index arithmetic, two nonzeros per column of ``Q``.
    The eigenvalues of ``T_h`` give ``ρ = max|λ|`` and the relative Perron
    gap.  No eigenvector is computed.  With ``u`` the identity tuple in
    these coordinates (``uᵀx = Σ_a tr X_a``), the bordered matrix

        ``A = [[T_h − ρI, u], [uᵀ, 0]]``

    gives the right Perron vector from ``A [x; μ] = e`` and the left one
    from ``Aᵀ`` (H. B. Keller's bordering lemma, *Applications of
    Bifurcation Theory*, 1977): as forms they are ``B`` and ``S``.  ``A``
    is nonsingular exactly when ``ρ`` is simple and neither Perron vector
    has trace zero.  For a positive map the Perron vectors of a simple
    ``ρ`` are semidefinite forms, of positive trace, so ``A`` is
    nonsingular exactly when ``ρ`` is simple: unlike ``T_h − ρI``, it is
    not singular at the root it solves for.
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
    a direct sum has a non-simple ``ρ`` or a singular form.  Simplicity is
    tested before the bordered solve.

    The fixed-point residual ``ε`` of ``B`` is checked against ``TOL_FIX``.
    The map ``T/ρ`` is positive and ``B`` is definite, so this certifies
    its radius: ``|ρ(T/ρ) − 1| ≤ ε‖B‖_F / λ_min(B)``.  Its spectrum
    ``Λ/ρ``, kept as ``transfer_spectrum``, serves the blocks ``D_44`` and
    (on the twin) ``D_11`` of :func:`~freerep.spectral.build_D`.

    Raises
    ------
    ValueError
        Invalid input, or "system is not irreducible" followed by the
        relative Perron gap and the ratios ``λ_min/λ_max`` of both forms
        (undefined when ``ρ`` is not simple or ``A`` is singular).
    RuntimeError
        The fixed-point residual of ``B`` exceeds ``TOL_FIX``.
    """
    violations = validate(sys)
    if violations:
        raise ValueError("invalid system: " + "; ".join(violations))
    basis = _hermitian_basis(sys.dims)
    t_h = _hermitian_matrix(transfer_matrix(sys), basis)
    vals = np.linalg.eigvals(t_h).astype(complex)
    rho = float(np.max(np.abs(vals)))
    gap = (np.partition(np.abs(vals - rho), 1)[1]
           / max(rho, np.finfo(float).tiny))
    if not gap > TOL_SIMPLE:
        raise _not_irreducible(gap)
    n = len(vals)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = t_h
    border[range(n), range(n)] -= rho
    border[:n, n] = border[n, :n] = basis[3]  # u, the identity tuple
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    try:
        right = np.linalg.solve(border, unit)[:n]
        left = np.linalg.solve(border.T, unit)[:n]
    except np.linalg.LinAlgError:
        raise _not_irreducible(gap) from None
    target = float(sum(sys.dims))
    B = _hermitian_form(right, sys.dims, basis, target)
    S = _hermitian_form(left, sys.dims, basis, target)
    B_hat = tuple(S[c ^ 1] for c in sys.alphabet.letters)
    ends = [_spectrum_ends(t) for t in (B, B_hat)]
    if not all(lo > TOL_PD * frob_tuple(t)
               for (lo, _), t in zip(ends, (B, B_hat))):
        raise _not_irreducible(gap, ends)
    scaled = sys.scaled(1.0 / np.sqrt(rho))
    nsys = NormalizedSystem.from_forms(scaled, B, B_hat, vals / rho)
    if nsys.fix_residual > TOL_FIX:
        raise RuntimeError("fixed-point residual %.2e of B exceeds %.0e"
                           % (nsys.fix_residual, TOL_FIX))
    return nsys
