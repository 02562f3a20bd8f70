"""Tree functions built from edge summands: evaluation, canonical
coefficient families, inner products, and the group and cone actions.

A summand ``μ[x, xa, v]`` vanishes off the half-tree behind the oriented
edge ``(x, xa)``, takes the value ``v`` at ``xa``, and propagates ``v``
along geodesics by one block factor per step.  A canonical family of
depth ``N`` stores one coefficient per forward edge ``(x, xb)`` with
``|x| = N``; functions differing only on finitely many vertices are
identified, which is what makes the depth-``N`` encodings equivalent.

:func:`canonicalize` computes a depth-``N`` family by walking each
summand's half-tree outward from its head, one block product per vertex;
:func:`mu_eval` evaluates a single summand at a single word from scratch
and is kept as the pointwise reference for that walk.
"""

from dataclasses import dataclass

import numpy as np

from .freegroup import in_cone, inverse, multiply


@dataclass(frozen=True)
class MuSummand:
    """One edge summand ``μ[x, xa, v]``; ``letter`` is ``a``, so the edge
    may ascend (``|xa| = |x|+1``) or descend (``|xa| = |x|−1``)."""

    x: tuple
    letter: int
    v: np.ndarray

    @property
    def xa(self):
        return multiply(self.x, (self.letter,))

    @property
    def native_depth(self):
        return min(len(self.x), len(self.xa))


def mu_eval(nsys, x, a, v, y):
    """Value of ``μ[x, xa, v]`` at the word ``y``.

    Zero outside the half-tree behind the edge, ``v`` at ``xa``, and
    otherwise the ordered product of blocks along the geodesic from
    ``xa`` to ``y`` applied to ``v``.
    """
    xa = multiply(x, (a,))
    z = multiply(inverse(xa), y)
    if not z:
        return np.asarray(v, dtype=complex)
    if z[0] == a ^ 1:
        return np.zeros(nsys.dims[z[-1]], dtype=complex)
    vec = np.asarray(v, dtype=complex)
    prev = a
    for t in z:
        vec = nsys.h(t, prev) @ vec
        prev = t
    return vec


@dataclass(frozen=True)
class MultiplicativeFunction:
    """Canonical depth-``N`` coefficient family over forward edges.

    ``coeffs`` maps ``(x, b)`` with ``|x| = depth`` to the value at
    ``xb``, a vector in ``V_b``; absent keys are zero.
    """

    system: object
    depth: int
    coeffs: dict


def first_shell(nsys, vectors):
    """Depth-0 family ``Σ_a μ[e, a, v_a]`` from ``{letter: vector}``."""
    coeffs = {}
    for a, v in vectors.items():
        vec = np.asarray(v, dtype=complex).reshape(nsys.dims[a])
        if np.linalg.norm(vec):
            coeffs[((), a)] = vec
    return MultiplicativeFunction(system=nsys, depth=0, coeffs=coeffs)


def _spread(nsys, s, radius):
    """Values of the summand ``s`` on the sphere of radius ``radius``.

    Walks the half-tree outward from the head ``xa``, never back across
    the incoming edge, applying one block ``H[c|prev]`` per step; the
    products are the ones :func:`mu_eval` forms, in the same order.  The
    head lies within ``radius`` of the identity, so every walk reaches
    the sphere from inside and stops there.
    """
    out = {}
    stack = [(s.xa, s.letter, np.asarray(s.v, dtype=complex).reshape(-1))]
    while stack:
        y, prev, vec = stack.pop()
        if len(y) == radius:
            out[y] = vec
            continue
        for c in nsys.alphabet.letters:
            if c == prev ^ 1:
                continue
            step = y[:-1] if y and y[-1] == c ^ 1 else y + (c,)
            stack.append((step, c, nsys.h(c, prev) @ vec))
    return out


def canonicalize(nsys, summands, N):
    """Depth-``N`` canonical family of a finite sum of summands.

    The forward edges ``(x, b)`` with ``|x| = N`` are the words
    ``xb`` of the sphere of radius ``N + 1``, so each summand is walked
    once over its half of the ball of radius ``N + 1`` (one block product
    per vertex, see :func:`_spread`) and the values are added per word in
    the order the summands are given.  Keys come out in the order of
    ``sphere(N)`` × letters, which is the lexicographic order of the
    words; a key whose sum is exactly zero is dropped.  The result equals,
    entry for entry, the sum of :func:`mu_eval` over the summands at each
    key.

    Raises
    ------
    ValueError
        when ``N`` is below some summand's representable depth, or a
        summand's vector does not live in its edge space.
    """
    for s in summands:
        nsys.alphabet.check_word(s.x)
        if np.shape(s.v) not in ((nsys.dims[s.letter],), (nsys.dims[s.letter], 1)):
            raise ValueError("vector dimension mismatch on edge letter %d"
                             % s.letter)
        if N < s.native_depth:
            raise ValueError(
                "depth %d below representable depth %d of a summand"
                % (N, s.native_depth)
            )
    sums = {}
    for s in summands:
        for y, val in _spread(nsys, s, N + 1).items():
            # start from 0.0 like a sum over zeros would (-0.0 becomes 0.0)
            sums[y] = sums.get(y, 0.0) + val
    coeffs = {}
    for y in sorted(sums):
        if sums[y].any():
            coeffs[(y[:-1], y[-1])] = sums[y]
    return MultiplicativeFunction(system=nsys, depth=N, coeffs=coeffs)


def deepen(f, N):
    """Re-encode ``f`` at depth ``N ≥ f.depth``; inner products are
    unchanged by block compatibility."""
    if N < f.depth:
        raise ValueError("cannot lower the depth of a canonical family")
    nsys = f.system
    coeffs = dict(f.coeffs)
    for _ in range(N - f.depth):
        nxt = {}
        for (x, b), u in coeffs.items():
            xb = x + (b,)
            for c in nsys.alphabet.letters:
                if c == b ^ 1:
                    continue
                key = (xb, c)
                val = nsys.h(c, b) @ u
                if key in nxt:
                    nxt[key] = nxt[key] + val
                else:
                    nxt[key] = val
        coeffs = nxt
    return MultiplicativeFunction(system=nsys, depth=N, coeffs=coeffs)


def inner_product(f, g):
    """``Σ_edges ⟨f(xb), B_b g(xb)⟩`` at the common depth; conjugate
    linear in ``f``."""
    if f.system is not g.system:
        raise ValueError("system mismatch")
    n = max(f.depth, g.depth)
    fc = deepen(f, n).coeffs
    gc = deepen(g, n).coeffs
    total = 0.0 + 0.0j
    for key, u in fc.items():
        v = gc.get(key)
        if v is not None:
            total += u.conj() @ f.system.B[key[1]] @ v
    return complex(total)


def norm(f):
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def act(y, f):
    """Left translation ``π(y)f``: relabels each summand edge by ``y``
    and re-canonicalizes; unitary for the inner product."""
    f.system.alphabet.check_word(y)
    summands = [
        MuSummand(x=multiply(y, x), letter=b, v=u)
        for (x, b), u in f.coeffs.items()
    ]
    target = max([s.native_depth for s in summands], default=0)
    return canonicalize(f.system, summands, target)


def act_indicator(x, f):
    """Multiply by the indicator of the cone of ``x``: zero every
    coefficient whose edge lies outside, at depth ``max(depth, |x|)``."""
    f.system.alphabet.check_word(x)
    n = max(f.depth, len(x))
    g = deepen(f, n)
    kept = {key: val for key, val in g.coeffs.items()
            if in_cone(x, key[0] + (key[1],))}
    return MultiplicativeFunction(system=f.system, depth=n, coeffs=kept)


def coefficient(v, x, w):
    """Matrix coefficient ``⟨v, π(x)w⟩`` by direct canonical evaluation."""
    return inner_product(v, act(x, w))
