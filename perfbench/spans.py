"""Span tracer for the traced run.

The tracer wraps freerep's public functions at every module attribute
that binds them (``freerep.cli.classify``, ``freerep.intertwiner.canonicalize``
and so on, wherever callers look them up), and the ``numpy.linalg``
entry points the package calls as ``np.linalg.<name>``.  While an
operation is open each wrapped call records a span: name, start, end,
parent span and system id, plus a few values read off the result.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

from measure import self_times, words_enumerated

ROOT = "cli.main"


def _series_attrs(result, args):
    size = args[0].system.alphabet.size
    return {"horizon": result.nmax, "cutoff": bool(result.cutoff),
            "words": words_enumerated(size, result.nmax)}


# (module, function, values recorded from the call's result)
TARGETS = (
    ("series", "sphere_sums", _series_attrs),
    ("series", "exponent_fit", None),
    ("functions", "canonicalize", None),
    ("functions", "deepen", None),
    ("functions", "norm", None),
    ("intertwiner", "build_J", None),
    ("intertwiner", "verify_isometry_and_intertwining", None),
    ("intertwiner", "split", None),
    ("intertwiner", "finite_rank_check", None),
    ("intertwiner", "fin_residual", None),
    ("intertwiner", "w_layout", lambda r, a: {"dim": r.dim}),
    ("spectral", "classify", None),
    ("spectral", "build_D", lambda r, a: {"side": r.side}),
    ("spectral", "eigen_one", None),
    ("spectral", "solve_Q", None),
    ("spectral", "q_least_squares", None),
    ("systems", "normalize", None),
    ("systems", "is_irreducible", None),
    ("systems", "spectral_radius_T", None),
    ("twin", "twin_package", None),
    ("twin", "solve_equivalence", None),
    ("sysio", "load_system", None),
    ("sysio", "validate_report", None),
    ("sysio", "dump_json", None),
    ("cli", "classification_report", None),
)
LINALG = ("eigvals", "svd", "lstsq", "inv", "solve")


class Tracer:
    """Records spans of wrapped calls made inside :meth:`op` blocks."""

    def __init__(self):
        # one list per span: [name, start, end, parent, system, attrs]
        self.spans = []
        self._stack = []
        self._system = None

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._system, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(result, args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Every target wrapped for the length of the block."""
        patched = []

        def patch(module, attr, value):
            patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        modules = [m for key, m in sys.modules.items()
                   if key == "freerep" or key.startswith("freerep.")]
        linalg = sys.modules["numpy.linalg"]
        try:
            for mod, fname, observe in TARGETS:
                original = getattr(sys.modules["freerep." + mod], fname)
                traced = self._wrap("%s.%s" % (mod, fname), original,
                                    observe)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patch(m, attr, traced)
            for fname in LINALG:
                patch(linalg, fname, self._wrap(
                    "linalg." + fname, getattr(linalg, fname), None))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextmanager
    def op(self, system):
        """Root span of one operation on the system ``system``."""
        span = [ROOT, 0.0, 0.0, None, system, None]
        self._system = system
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._system = None

    def summary(self):
        """Per span name: ``calls``, total ``self_s`` and the recorded
        result values as lists."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        out = {}
        for span, self_s in zip(self.spans, own):
            entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                             "attrs": {}})
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in (span[5] or {}).items():
                entry["attrs"].setdefault(key, []).append(value)
        return out

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, system, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "system": system}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")
