"""Seeded inputs of the three workloads.

Seed 0 gives the systems exactly as the acceptance gate draws them.  A
seed ``s > 0`` gives the same systems under a change of basis
``H[b|a] -> g_b H[b|a] g_a^-1`` with random unitary ``g_c`` drawn from
``s``.  The rank, the letter dimensions and so the enumeration budget
stay fixed, which keeps the work per system the same from seed to seed,
while every number the pipeline sees changes.

``g_0`` keeps the first basis vector of letter 0, the vector ``classify``
takes the growth series at, so the series and the measured exponent are
the same for every seed up to rounding.  Every decision of ``classify``
is then one the roadmap requires to be gauge invariant (the class, the
multiplicity, the exponent check), and the number of undecided systems
should not depend on the seed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from freerep import generate
from freerep.systems import MatrixSystem

# a pass of the full 50-system batch outlasts a run; 8 per rank keep two
# whole passes in one
PORTFOLIO_PER_RANK = 8
WIDE_SYSTEMS = 12


@dataclass(frozen=True)
class Item:
    """One input system; ``known_class`` is set on ``classes`` only."""

    name: str
    system: MatrixSystem
    known_class: Optional[str] = None
    endpoint: bool = False


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gauge(system, rng):
    """Unitarily equivalent copy of ``system`` in a random basis that
    keeps the first basis vector of letter 0."""
    g0 = np.eye(system.dims[0], dtype=complex)
    g0[1:, 1:] = _haar_unitary(rng, system.dims[0] - 1)
    g = [g0] + [_haar_unitary(rng, n) for n in system.dims[1:]]
    blocks = {(b, a): g[b] @ m @ g[a].conj().T
              for (b, a), m in system.blocks.items()}
    return MatrixSystem(system.alphabet, system.dims, blocks)


def _base_items(workload):
    if workload == "portfolio":
        # both ranks interleaved, so any prefix of a pass keeps both
        out = []
        for j in range(PORTFOLIO_PER_RANK):
            for seed, k in ((j, 2), (25 + j, 3)):
                out.append(Item("portfolio-%d" % seed,
                                generate.random_system(seed, k=k, max_dim=3)))
        return out
    if workload == "wide":
        return [Item("wide-%d" % seed,
                     generate.random_system(seed, k=2, max_dim=8))
                for seed in range(WIDE_SYSTEMS)]
    if workload == "classes":
        out = [Item("ai-%d" % s, generate.ai_instance(s), "AI")
               for s in range(1, 6)]
        out += [Item("bi-%d" % s, generate.bi_instance(s), "BI")
                for s in range(1, 6)]
        out += [Item("aii-%d" % s, generate.aii_instance(s), "AII")
                for s in range(1, 4)]
        out.append(Item("s0", generate.s0_system(), "BII", endpoint=True))
        return out
    raise ValueError("unknown workload %r" % workload)


def items(workload, seed):
    """The workload's systems for ``seed``, in pass order."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    base = _base_items(workload)
    if seed == 0:
        return base
    return [Item(it.name, gauge(it.system, np.random.default_rng((seed, i))),
                 it.known_class, it.endpoint)
            for i, it in enumerate(base)]
