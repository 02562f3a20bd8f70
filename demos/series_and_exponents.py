"""Sphere sums, the hard growth bound, and exponent fits.

For a unit vector v the sum s_n of |<v, pi(x) v>|^2 over words of
length n obeys the hard bound s_n <= (n+1)^2 regardless of the system.
The decay/growth exponent of s_n separates the classes: flat for AI
and BI, linear for AII, quadratic for the endpoint class BII.  The
script computes series to n = 128 for one instance of each class (a
transfer recursion makes each term cost the same, however many words
the sphere holds) and fits the exponent on the tail window n = 64..128.
"""

import numpy as np

from freerep import (
    classify,
    exponent_fit,
    first_shell,
    generate,
    haagerup_violations,
    norm,
    normalize,
    phi_eps_norm,
    sphere_sums,
)


def unit_edge(nsys):
    v = np.zeros(nsys.dims[0])
    v[0] = 1.0
    f = first_shell(nsys, {0: v})
    return first_shell(nsys, {0: v / norm(f)})


INSTANCES = (
    ("AI", generate.ai_instance(2)),
    ("AII", generate.aii_instance(1)),
    ("BI", generate.bi_instance(3)),
    ("BII", generate.s0_system()),
)

for label, raw in INSTANCES:
    nsys = normalize(raw)
    rep = classify(nsys)
    v = unit_edge(nsys)
    series = sphere_sums(v, v, 128)
    fit = exponent_fit(series)
    print("%s (predicted exponent %d)" % (label, rep.predicted_exponent))
    print("  s_n:", " ".join("%.4f" % s for s in series.s[:8]), "...")
    print("  fitted exponent %.3f on window n = %d..%d"
          % (fit.p_hat, fit.window[0], fit.window[1]))
    # the bound (n+1)^2 must never be exceeded
    print("  hard-bound violations:", haagerup_violations(series))
    # damped sum; at eps=2 the quadratic tail estimate certifies the
    # truncation
    phi = phi_eps_norm(series, eps=2.0)
    print("  damped sum at eps=2: %.6f (tail below %.1e, certified=%s)"
          % (phi.value, phi.tail_bound, phi.tail_ok))
    print()
