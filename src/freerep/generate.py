"""Seeded construction of concrete systems: the endpoint example, random
dense systems, and the scalar families used to exhibit each symmetry class.

Every constructor is deterministic given its seed, so reports can cite the
seed and be reproduced exactly.
"""

import numpy as np

from .freegroup import Alphabet
from .systems import MatrixSystem, is_irreducible


def s0_system():
    """The rank-2 endpoint system: all dims 1, every block ``1/√3``.

    Already normalized (transfer radius 1, fixed forms all 1).
    """
    alpha = Alphabet(2)
    h = 1.0 / np.sqrt(3.0)
    blocks = {}
    for b in alpha.letters:
        for a in alpha.letters:
            if b != a ^ 1:
                blocks[(b, a)] = np.array([[h]], dtype=complex)
    return MatrixSystem(alpha, (1, 1, 1, 1), blocks)


def doubled_system(sys):
    """Block-diagonal double of a system; reducible by construction."""
    dims = tuple(2 * n for n in sys.dims)
    blocks = {}
    for key, m in sys.blocks.items():
        big = np.zeros((2 * m.shape[0], 2 * m.shape[1]), dtype=complex)
        big[: m.shape[0], : m.shape[1]] = m
        big[m.shape[0]:, m.shape[1]:] = m
        blocks[key] = big
    return MatrixSystem(sys.alphabet, dims, blocks)


def random_system(seed, k=2, max_dim=3):
    """Random dense complex system, rejection-sampled to be irreducible.

    Letter dimensions are drawn uniformly from ``1..max_dim``; blocks are
    dense complex Gaussians, which are irreducible with probability one.
    The seed is bumped until :func:`~freerep.systems.is_irreducible`, the
    path-span test, finds every span full.  That test grows each span from
    its frontier, with the verdicts of growing it from all of its rows, so
    every seed draws the systems it always drew.
    """
    for attempt in range(64):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        alpha = Alphabet(k)
        dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in alpha.letters)
        blocks = {}
        for b in alpha.letters:
            for a in alpha.letters:
                if b != a ^ 1:
                    blocks[(b, a)] = rng.normal(
                        size=(dims[b], dims[a])
                    ) + 1j * rng.normal(size=(dims[b], dims[a]))
        sys = MatrixSystem(alpha, dims, blocks)
        if is_irreducible(sys):
            return sys
    raise RuntimeError("could not draw an irreducible system")


def random_scalar_system(seed, k=2):
    """Random system with all dims 1 and nonzero complex scalar blocks."""
    rng = np.random.default_rng(seed)
    alpha = Alphabet(k)
    blocks = {}
    for b in alpha.letters:
        for a in alpha.letters:
            if b != a ^ 1:
                r = 0.5 + rng.random()
                phi = 2 * np.pi * rng.random()
                blocks[(b, a)] = np.array([[r * np.exp(1j * phi)]])
    return MatrixSystem(alpha, (1,) * alpha.size, blocks)


def self_twin_system(seed, k=2, dim=1, values=None):
    """System equal to its own twin as data: ``H[b,a] = H[a⁻¹,b⁻¹]†``.

    Blocks are drawn for one representative of each orbit of the pair
    involution ``(b,a) ↦ (a⁻¹,b⁻¹)`` (which has no fixed points) and
    mirrored.  ``values`` optionally supplies the representative blocks in
    orbit order instead of drawing them.
    """
    alpha = Alphabet(k)
    dims = (dim,) * alpha.size
    reps = pair_orbit_representatives(alpha)
    rng = np.random.default_rng(seed)
    blocks = {}
    for i, (b, a) in enumerate(reps):
        if values is not None:
            m = np.asarray(values[i], dtype=complex).reshape(dim, dim)
        else:
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks[(b, a)] = m
        blocks[(a ^ 1, b ^ 1)] = m.conj().T
    return MatrixSystem(alpha, dims, blocks)


def pair_orbit_representatives(alpha):
    """One representative per orbit of ``(b,a) ↦ (a⁻¹,b⁻¹)`` on pairs with
    ``ba ≠ e``; there are ``k(2k−1)`` orbits, none of them fixed points."""
    reps = []
    seen = set()
    for b in alpha.letters:
        for a in alpha.letters:
            if b == a ^ 1 or (b, a) in seen:
                continue
            seen.add((b, a))
            seen.add((a ^ 1, b ^ 1))
            reps.append((b, a))
    return reps


def rotated_scalar_system(theta, gauge_seed=None):
    """Rank-2 scalar system with every block ``exp(iθ)/√3``.

    At ``θ = 0`` this is the endpoint system; for ``θ`` away from ``0`` and
    ``π`` its twin is inequivalent to it.  An optional unimodular diagonal
    gauge (a change of basis, preserving every invariant) varies the
    entries without changing the class.
    """
    alpha = Alphabet(2)
    z = np.exp(1j * theta) / np.sqrt(3.0)
    gauge = np.ones(alpha.size, dtype=complex)
    if gauge_seed is not None:
        rng = np.random.default_rng(gauge_seed)
        gauge = np.exp(2j * np.pi * rng.random(alpha.size))
    blocks = {}
    for b in alpha.letters:
        for a in alpha.letters:
            if b != a ^ 1:
                blocks[(b, a)] = np.array([[gauge[b] * z * np.conj(gauge[a])]])
    return MatrixSystem(alpha, (1,) * alpha.size, blocks)


def bi_instance(seed):
    """Scalar self-twin system with equivalent twins and a solvable Q.

    The blocks are drawn from a closed-form four-real-parameter family:
    with orbit values ``α = H_aa``, ``β = H_bb``, ``γ = H_ab``,
    ``ε = H_ba`` and the companions ``H_{ab⁻¹} = −γ``, ``H_{b⁻¹a} = ε``,
    the constraints ``|ε| = |γ|``, ``|β| = |α|``, ``|α|² + 2|γ|² = 1`` and
    ``|γ|²·Im(α/(γε)) = Im β`` make every consistency condition of the
    inhomogeneous intertwining system hold identically while ``E ≠ 0``.
    The constant tuple ``B = 1`` is then the exact normalized fixed point.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        r = 0.30 + 0.25 * rng.random()
        a_mod = np.sqrt(1.0 - 2.0 * r * r)
        alpha_v = a_mod * np.exp(2j * np.pi * rng.random())
        gamma = r * np.exp(2j * np.pi * rng.random())
        eps = r * np.exp(2j * np.pi * rng.random())
        im_b = r * r * np.imag(alpha_v / (gamma * eps))
        re_b = np.sqrt(max(a_mod * a_mod - im_b * im_b, 0.0))
        if rng.random() < 0.5:
            re_b = -re_b
        beta = re_b + 1j * im_b
        e02 = alpha_v * np.conj(eps) - gamma * beta
        e03 = alpha_v * np.conj(eps) + gamma * np.conj(beta)
        if max(abs(e02), abs(e03)) < 0.05:
            continue
        vals = {
            (0, 0): alpha_v, (2, 2): beta, (0, 2): gamma,
            (0, 3): -gamma, (2, 0): eps, (3, 0): eps,
        }
        blocks = {}
        for (x, y), v in vals.items():
            blocks[(x, y)] = np.array([[v]], dtype=complex)
            blocks[(y ^ 1, x ^ 1)] = np.array([[np.conj(v)]], dtype=complex)
        return MatrixSystem(Alphabet(2), (1, 1, 1, 1), blocks)
    raise RuntimeError("no usable draw for seed %d" % seed)


def bi_e0_system(seed=0):
    """Scalar self-twin system whose E maps vanish identically.

    Built from a Hermitian unitary 4×4 matrix ``V`` with zero diagonal:
    four unit spinors whose Bloch vectors form a zero-sum (tetrahedral)
    frame give ``V = (Gram) − I`` with all off-diagonal moduli ``1/√3``,
    and ``H_{xy} = V[x⁻¹, y]`` then has exactly orthogonal columns, so
    every E block cancels and ``Q = 0`` solves the intertwining system.
    """
    rng = np.random.default_rng(seed)
    w = np.exp(2j * np.pi / 3)
    spinors = np.array([
        [1.0, 0.0],
        [1 / np.sqrt(3), np.sqrt(2 / 3)],
        [1 / np.sqrt(3), np.sqrt(2 / 3) * w],
        [1 / np.sqrt(3), np.sqrt(2 / 3) * w * w],
    ], dtype=complex)
    # random SU(2) rotation and per-spinor phases; the frame stays tight
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    rot = np.array([[x[0] + 1j * x[1], x[2] + 1j * x[3]],
                    [-x[2] + 1j * x[3], x[0] - 1j * x[1]]])
    u = spinors @ rot.T * np.exp(2j * np.pi * rng.random(4))[:, None]
    gram = u @ u.conj().T
    v = gram - np.eye(4)
    blocks = {}
    for x_ in range(4):
        for y in range(4):
            if x_ == y ^ 1:
                continue
            blocks[(x_, y)] = np.array([[v[x_ ^ 1, y]]])
    return MatrixSystem(Alphabet(2), (1, 1, 1, 1), blocks)


def ai_instance(seed):
    """Gauged rotation-family system; twins inequivalent, Q solvable."""
    rng = np.random.default_rng(seed)
    theta = 0.5 + (np.pi - 1.0) * rng.random()
    return rotated_scalar_system(theta, gauge_seed=seed + 1000)


def aii_instance(seed):
    """Random scalar system rejection-sampled until it classifies AII."""
    from .spectral import classify
    from .systems import normalize

    for i in range(32):
        sys = random_scalar_system(seed + 7919 * i)
        try:
            report = classify(normalize(sys))
        except (ValueError, RuntimeError):
            continue
        if report.class_label == "AII":
            return sys
    raise RuntimeError("no AII draw found from seed %d" % seed)
