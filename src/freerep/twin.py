"""Twin systems, the pairing maps between a system and its twin, and
equivalence testing.

The twin attaches to each letter the conjugate-dual space of the inverse
letter.  In conjugate-dual coordinates the twin's blocks are plain data:
``Ĥ[b, a] = H[a⁻¹, b⁻¹]†``, which makes the construction an involution on
the nose.  The twin's transfer operator is the adjoint of the system's with
letters relabelled, so :func:`~freerep.systems.normalize` already holds the
twin's forms ``B̂``, from the left Perron vector of its bordered solve, and
the twin's spectrum, the conjugate of the system's; :func:`twin` reads
them off.

A system and its twin are equivalent exactly when the mixed block
``D_22`` of :mod:`~freerep.spectral` has eigenvalue 1, and
:func:`twin_package` reads that off the block's resolvent certificate
before any factorization.  Only where the certificate cannot rule the
eigenvalue out does :func:`solve_equivalence` take the kernel of the
intertwining operator ``M : (J_a) ↦ (Ĥ_ab J_b − J_a H_ab)`` from its SVD:
the equivalence tuple ``K``.  That SVD also decides equivalence for any
other pair of systems.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .systems import MatrixSystem, NormalizedSystem, frob_tuple, kron

# Relative singular-value threshold for nullspace rank decisions, and the
# invertibility floor for equivalence tuples.
NULLSPACE_RTOL = 1e-8
TOL_INV = 1e-8


def twin_system(sys):
    """Twin of a plain system: dims swapped along the involution, blocks
    conjugate-transposed across inverted letter pairs.  An involution."""
    dims = tuple(sys.dims[c ^ 1] for c in range(sys.alphabet.size))
    blocks = {}
    for (b, a), m in sys.blocks.items():
        blocks[(a ^ 1, b ^ 1)] = m.conj().T
    return MatrixSystem(sys.alphabet, dims, blocks)


def twin(nsys):
    """Twin of a normalized system, with no eigensolve.

    The twin's transfer matrix is ``T†`` with its letters relabelled, so
    its transfer spectrum is the conjugate of the system's: the twin
    already has unit transfer radius and takes the conjugated certificate
    spectrum.  Its forms are ``nsys.B_hat``, and its ``B_hat`` is
    ``nsys.B``, so ``twin(twin(nsys))`` has the blocks, forms and spectrum
    of ``nsys``.
    """
    return NormalizedSystem.from_forms(twin_system(nsys.system), nsys.B_hat,
                                       nsys.B, nsys.transfer_spectrum.conj())


def e_maps(nsys):
    """The pairing maps ``E_ab : V_b → V̂_a`` for all pairs with ``ab ≠ e``.

    ``E_ab = Σ_c H[c, a⁻¹]† B_c H[c, b]``; the terms ``c = a`` and
    ``c = b⁻¹`` vanish automatically.  For ``ab = e`` the map is zero by
    definition (the unrestricted sum would instead reproduce ``B_{a⁻¹}``),
    so those pairs are simply absent from the result.  A normalized
    system holds its maps as ``nsys.E``, computed once.
    """
    sys = nsys.system
    size = sys.alphabet.size
    out = {}
    for a in range(size):
        for b in range(size):
            if b == a ^ 1:
                continue
            acc = np.zeros((sys.dims[a ^ 1], sys.dims[b]), dtype=complex)
            for c in range(size):
                left = sys.blocks.get((c, a ^ 1))
                right = sys.blocks.get((c, b))
                if left is None or right is None:
                    continue
                acc += left.conj().T @ nsys.B[c] @ right
            out[(a, b)] = acc
    return out


def pair_block(nsys, E, a, b):
    """The pair block ``X_ab = [[H[a|b], 0], [E_ab, Ĥ_ab]]`` for ``ab ≠ e``,
    with ``Ĥ_ab = H[b⁻¹|a⁻¹]†`` and ``E`` from :func:`e_maps`.

    It maps ``V_b ⊕ V̂_b → V_a ⊕ V̂_a``.  The block ``(a, b)`` of the
    four-row operator ``D`` is ``S ↦ X_ab S X_ab†`` on ``S = [[S⁴,
    S²], [S³, S¹]]``, and ``X_cl`` is the adjoint transfer step
    ``T_{l→c}†`` of the sphere-sum recursion.
    """
    return np.block([
        [nsys.h(a, b), np.zeros((nsys.dims[a], nsys.dims[b ^ 1]))],
        [E[(a, b)], nsys.h(b ^ 1, a ^ 1).conj().T],
    ])


def e_lookup(E, dims, a, b):
    """E map for any ordered pair, zeros at ``ab = e``."""
    if b == a ^ 1:
        return np.zeros((dims[a ^ 1], dims[b]), dtype=complex)
    return E[(a, b)]


@dataclass
class EquivalenceResult:
    """Outcome of the intertwiner nullspace computation.

    ``status`` is one of ``equivalent``, ``inequivalent``, ``undecided``;
    ``K`` is the equivalence tuple when equivalent; ``solution_space_dim``
    is 0 or 1 for honest irreducible inputs (2 or more flags an upstream
    irreducibility bug and yields ``undecided``).
    """

    status: str
    K: Optional[tuple]
    solution_space_dim: int
    residual: float
    diagnostic: str = ""


def _intertwiner_matrix(ns1, ns2):
    """The intertwining operator ``M : (J_a) ↦ (H2_ba J_a − J_b H1_ba)``.

    ``M`` has one row block per pair in ``pairs()`` order, the order of
    the stacked ``E`` maps, and one column block per letter ``c`` holding
    ``J_c : V1_c → V2_c`` row-major.  The pair ``(c, c)`` spans the whole
    column block ``c``, so ``M`` has at least as many rows as columns.
    """
    dims1, dims2 = ns1.dims, ns2.dims
    offs = _offsets(dims1, dims2)
    rows = []
    for b, a in ns1.system.pairs():
        row = np.zeros((dims2[b] * dims1[a], offs[-1]), dtype=complex)
        row[:, offs[a]:offs[a + 1]] += kron(ns2.h(b, a), np.eye(dims1[a]))
        row[:, offs[b]:offs[b + 1]] -= kron(np.eye(dims2[b]), ns1.h(b, a).T)
        rows.append(row)
    return np.vstack(rows)


def _intertwiner_svd(ns1, ns2):
    """Singular values and the square ``vh`` of right singular vectors of
    :func:`_intertwiner_matrix`, from the SVD of the square ``R`` of its
    QR factorization, ``M = Q R``: they are those of ``M``, and the tall
    left factor of ``M`` is never formed.
    """
    _, sv, vh = np.linalg.svd(
        np.linalg.qr(_intertwiner_matrix(ns1, ns2), mode="r"))
    return sv, vh


def _offsets(dims1, dims2):
    return np.cumsum([0] + [n2 * n1 for n1, n2 in zip(dims1, dims2)])


def _unvec_tuple(vec, dims1, dims2):
    """Per-letter maps ``V1_c → V2_c`` of a vector over the columns of
    ``M``."""
    offs = _offsets(dims1, dims2)
    return tuple(vec[offs[c]:offs[c + 1]].reshape(dims2[c], dims1[c])
                 for c in range(len(dims1)))


def _pin_phase(K):
    """Deterministic phase and scale: largest entry real positive, unit norm."""
    flat = np.concatenate([m.ravel() for m in K])
    top = flat[int(np.argmax(np.abs(flat)))]
    phase = top / abs(top)
    norm = frob_tuple(K)
    return tuple(m / (phase * norm) for m in K)


def intertwining_residual(ns1, ns2, K):
    """max over pairs of ‖H2_ba K_a − K_b H1_ba‖ relative to ‖K‖."""
    worst = 0.0
    for b, a in ns1.system.pairs():
        gap = ns2.h(b, a) @ K[a] - K[b] @ ns1.h(b, a)
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst / max(frob_tuple(K), 1e-300)


def solve_equivalence(ns1, ns2):
    """Decide whether two normalized irreducible systems are equivalent.

    Computes the full nullspace of the intertwining constraints from one
    SVD of ``M``, for any two systems over the same alphabet.  Dimension
    0 means inequivalent; dimension 1 with an invertible representative
    means equivalent, and the representative (phase-pinned, unit norm) is
    returned as ``K``.  Any other outcome is ``undecided`` with a
    diagnostic.  For a system and its twin, :func:`twin_package` calls it
    only where the ``D_22`` certificate cannot decide.
    """
    if ns1.alphabet.size != ns2.alphabet.size:
        raise ValueError("dimension mismatch of alphabets")
    sv, vh = _intertwiner_svd(ns1, ns2)
    null_dim = int(np.sum(sv < NULLSPACE_RTOL * sv[0]))
    if null_dim == 0:
        return EquivalenceResult("inequivalent", None, 0, 0.0)
    if null_dim >= 2:
        return EquivalenceResult(
            "undecided",
            None,
            null_dim,
            0.0,
            diagnostic="solution space dimension %d contradicts "
            "irreducibility" % null_dim,
        )
    K = _pin_phase(_unvec_tuple(vh[-1].conj(), ns1.dims, ns2.dims))
    svs = [np.linalg.svd(m, compute_uv=False) for m in K]
    scale = max(s[0] for s in svs)
    if min(s[-1] for s in svs) <= TOL_INV * scale:
        return EquivalenceResult(
            "undecided",
            None,
            1,
            0.0,
            diagnostic="one-dimensional solution space but the "
            "representative is singular",
        )
    return EquivalenceResult(
        "equivalent", K, 1, intertwining_residual(ns1, ns2, K)
    )


@dataclass
class SymmetrizedK:
    """Equivalence tuple with ``K_a† = K_{a⁻¹}`` and form-unitarity data."""

    K: tuple
    unitary_residual: float


def symmetrize_and_unitarize_K(result, ns1, ns2):
    """Adjust an equivalence tuple to satisfy ``K_a† = K_{a⁻¹}`` and
    ``K_a† B̂_a K_a = B_a``.

    Both the Hermitian part ``(K_a + K_{a⁻¹}†)/2`` and the anti-Hermitian
    part ``(K_a − K_{a⁻¹}†)/(2i)`` solve the intertwining equations, and in
    a one-dimensional solution space each is a scalar multiple of ``K``, so
    at least one is nonzero; the larger is kept.  Form-unitarity is then
    imposed by a single global positive rescale; the residual spread across
    letters is reported (nonzero spread would mean a scalar cannot
    unitarize, which is surfaced rather than hidden).
    """
    if result.status != "equivalent":
        raise ValueError("symmetrization requires an equivalence")
    K = result.K
    herm = tuple((K[c] + K[c ^ 1].conj().T) / 2 for c in range(len(K)))
    anti = tuple((K[c] - K[c ^ 1].conj().T) / (2j) for c in range(len(K)))
    n_h, n_a = frob_tuple(herm), frob_tuple(anti)
    assert max(n_h, n_a) > 1e-12 * frob_tuple(K), "both symmetrized parts zero"
    K = herm if n_h >= n_a else anti
    # global unitarization scalar from the trace ratio; valid because
    # K†B̂K is again a transfer fixed point, hence proportional to B
    pulled = tuple(
        K[c].conj().T @ ns2.B[c] @ K[c] for c in range(len(K))
    )
    ratio = sum(np.trace(m).real for m in pulled) / sum(
        np.trace(m).real for m in ns1.B
    )
    K = tuple(m / np.sqrt(ratio) for m in K)
    spread = 0.0
    for c in range(len(K)):
        gap = K[c].conj().T @ ns2.B[c] @ K[c] - ns1.B[c]
        spread = max(
            spread, float(np.linalg.norm(gap) / np.linalg.norm(ns1.B[c]))
        )
    return SymmetrizedK(K=K, unitary_residual=spread)


@dataclass
class TwinPackage:
    """A system together with its twin, pairing maps, and (when the two
    are equivalent) the symmetrized unitary equivalence tuple.

    ``mixed`` is the undeflated ``D_22`` certificate of
    :func:`~freerep.spectral.mixed_certificate` where it decided the
    twins inequivalent, and ``None`` where the SVD decided instead.
    """

    original: NormalizedSystem
    twin: NormalizedSystem
    equivalence: Optional[EquivalenceResult] = None
    K: Optional[tuple] = None
    k_unitary_residual: float = 0.0
    mixed: object = None

    @property
    def E(self):
        """The pairing maps of :func:`e_maps`, held by the system."""
        return self.original.E

    @property
    def equivalent(self):
        return self.equivalence.status == "equivalent"

    @cached_property
    def d22(self):
        """``D_22`` whitened (:func:`~freerep.spectral._dense_block`), once."""
        from .spectral import _dense_block
        return _dense_block(self)

    def e(self, a, b):
        return e_lookup(self.E, self.original.dims, a, b)

    def hhat(self, b, a):
        return self.twin.h(b, a)


def twin_package(nsys):
    """Assemble twin, pairing maps, and the equivalence decision.

    The twins are equivalent exactly when ``D_22`` has eigenvalue 1, so a
    certified bound ``|1 − μ| ≥ 10·δ`` on every eigenvalue ``μ`` of
    ``D_22`` (:func:`~freerep.spectral.mixed_certificate`) decides them
    inequivalent with no SVD; ``build_D`` then reuses its inverse.
    Otherwise :func:`solve_equivalence` decides, and gives ``K``.
    """
    # spectral builds on this module, so it is imported at call time
    from .spectral import mixed_certificate
    tw = twin(nsys)
    pkg = TwinPackage(original=nsys, twin=tw)
    pkg.mixed = mixed_certificate(pkg)
    if pkg.mixed is not None:
        pkg.equivalence = EquivalenceResult("inequivalent", None, 0, 0.0)
        return pkg
    pkg.equivalence = eq = solve_equivalence(nsys, tw)
    if eq.status == "equivalent":
        sym = symmetrize_and_unitarize_K(eq, nsys, tw)
        pkg.K = sym.K
        pkg.k_unitary_residual = sym.unitary_residual
    return pkg
