"""Batch front end: validate and normalize system files, run the full
classification pipeline into machine-readable reports, export
coefficient series, and run bundled demos.

Exit codes: 0 success, 1 validation failure, 2 undecided verdict or
undecided normalization.  A failing input ends in one ``error:`` line
that names it (its label, for ``demo``).  ``validate`` and ``classify``
run their inputs in the order given and go on past a failing one; then
any invalid input gives 1, else any undecided one gives 2.
"""

import argparse
import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, generate
from .functions import first_shell
from .intertwiner import (
    build_J,
    finite_rank_check,
    split,
    verify_inverse_relations,
    verify_isometry_and_intertwining,
)
from .series import exponent_fit, haagerup_violations, sphere_sums
from .spectral import classify
from .systems import UndecidedError, normalize, validate
from .sysio import (
    SystemDocument,
    dump_json,
    load_system,
    system_to_doc,
    validate_report,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNDECIDED = 2

TOL_RANGE = (1e-12, 1e-4)
NMAX_LIMIT = 4096
# sphere-sum horizon of classify and demo; the tail-window exponent fit
# needs it long (at 128 the fits of the seeded classes and the wide
# random systems land within 0.08 of the prediction)
DEFAULT_NMAX = 128

_NORMALIZATION = ("rho_T = 1; B Hermitian positive definite; "
                  "sum_a tr(B_a) = sum_a n_a")
_DEMOS = ("endpoint-f2", "random-ai", "random-bi")


class CliError(Exception):
    """A failure that ends a command, or one of its inputs, in one
    ``error:`` line and the exit code ``code``."""

    def __init__(self, msg, code=EXIT_INVALID):
        super().__init__(msg)
        self.code = code


@contextlib.contextmanager
def _naming(name):
    """Turn the pipeline's ``ValueError`` (invalid input, exit 1) and
    ``UndecidedError`` (exit 2) into a :class:`CliError` naming ``name``,
    the input path or the demo label."""
    try:
        yield
    except ValueError as exc:
        raise CliError("%s: %s" % (name, exc)) from None
    except UndecidedError as exc:
        raise CliError("%s: normalization undecided: %s" % (name, exc),
                       EXIT_UNDECIDED) from None


def _load(path):
    """Parse a system file, not validated (``normalize`` validates).  A
    schema violation raises ``ValueError``, for :func:`_naming`."""
    try:
        return load_system(path)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON in %s: line %d column %d (%s)"
                       % (path, exc.lineno, exc.colno, exc.msg)) from None
    except OSError as exc:
        raise CliError("cannot read %s: %s"
                       % (path, exc.strerror or exc)) from None


def _each(paths, run):
    """Call ``run(path)``, which returns an exit code, on every input;
    a failing input prints its line and the rest still run.  Any invalid
    input gives 1, else any undecided one gives 2."""
    codes = set()
    for path in paths:
        try:
            codes.add(run(path))
        except CliError as exc:
            print("error: %s" % exc, file=sys.stderr)
            codes.add(exc.code)
    for code in (EXIT_INVALID, EXIT_UNDECIDED):
        if code in codes:
            return code
    return EXIT_OK


def _entry(value, tolerance, **extra):
    out = {"value": value, "tolerance": tolerance}
    out.update(extra)
    return out


def _first_edge_vector(nsys):
    """Unit-norm first-shell family on the edge from the identity along
    the first generator: ``e_0`` scaled by ``B_0[0, 0]^{−1/2}``."""
    v = np.zeros(nsys.dims[0], dtype=complex)
    v[0] = 1.0 / np.sqrt(nsys.B[0][0, 0].real)
    return first_shell(nsys, {0: v})


def classification_report(sysdoc, tol, nmax, seed=None):
    """Run the pipeline on a parsed system document.

    Returns ``(report, exit_code)``.  The report always validates against
    the bundled schema; any residual at or above its declared tolerance
    demotes the verdict to ``undecided``.

    For ``AI`` and ``BI`` it certifies ``J`` at depth 1: the Q equation,
    the inverse relations, the word identities, the W_1 Gram and, also
    for ``P_+`` of ``BI``, commutation W_0 → W_1.  These bound every
    depth (:func:`~freerep.intertwiner.verify_isometry_and_intertwining`).

    Raises ``ValueError`` where :func:`normalize` finds the system invalid
    or not irreducible, and ``UndecidedError`` where it cannot certify the
    fixed point of ``B``.
    """
    nsys = normalize(sysdoc.system)
    rep = classify(nsys)
    diagnostics = list(rep.diagnostics)

    residuals = {
        "compatibility": _entry(float(nsys.fix_residual), 1e-10),
        "q_equation": _entry(None, tol),
        "q_antisymmetry": _entry(None, tol),
        "inverse_relations": _entry(None, tol),
        "word_identity": _entry(None, tol),
        "isometry": _entry(None, 10.0 * tol),
        "intertwining": _entry(None, 10.0 * tol),
        "split": _entry(None, tol),
        "split_commutation": _entry(None, 10.0 * tol),
        "finite_rank": {"value": None, "tolerance": 0.5, "constant": None,
                        "profile": None},
    }
    if rep.Q is not None:
        residuals["q_equation"]["value"] = float(rep.Q.residual)
        residuals["q_antisymmetry"]["value"] = float(
            rep.Q.antisymmetry_residual)

    if rep.class_label in ("AI", "BI") and rep.Q is not None:
        J = build_J(rep)
        residuals["inverse_relations"]["value"] = float(
            verify_inverse_relations(J).max)
        iso = verify_isometry_and_intertwining(J, depth=1, word_max=4)
        residuals["word_identity"]["value"] = float(iso.fin_residual)
        residuals["isometry"] = _entry(float(max(iso.gram_residuals)),
                                       10.0 * tol, depth=1)
        residuals["intertwining"] = _entry(float(iso.intertwine_residual),
                                           10.0 * tol, depth=1)
        if rep.class_label == "BI":
            sp = split(J)
            diagnostics.extend(sp.diagnostics)
            residuals["split"]["value"] = float(max(
                sp.unimodularity, sp.eig_spread, sp.quad_residual,
                sp.idempotency, sp.orthogonality, sp.completeness,
                sp.involution_residual, sp.form_hermiticity))
            residuals["split_commutation"]["value"] = float(
                sp.commutation_residual)
        alphabet = nsys.alphabet
        profile = {}
        worst_excess = 0
        constant = True
        for a in alphabet.letters:
            for b in alphabet.letters:
                if a == b:
                    continue
                fr = finite_rank_check(J, a, b, nmax=4)
                key = "%s|%s" % (alphabet.letter_name(b),
                                 alphabet.letter_name(a))
                profile[key] = {"cap": int(fr.cap),
                                "ranks": [int(r) for r in fr.ranks]}
                worst_excess = max(worst_excess,
                                   max(r - fr.cap for r in fr.ranks))
                constant = constant and len(set(fr.ranks[1:])) == 1
        residuals["finite_rank"] = {
            "value": float(worst_excess), "tolerance": 0.5,
            "constant": constant, "profile": profile,
        }

    f = _first_edge_vector(nsys)
    series = sphere_sums(f, f, nmax)
    for n in haagerup_violations(series):
        diagnostics.append("sphere sum s_%d violates the (n+1)^2 bound" % n)
    measured = None
    try:
        fit = exponent_fit(series)
        measured = {
            "p_hat": float(fit.p_hat),
            "window": [int(fit.window[0]), int(fit.window[1])],
            "confidence": float(fit.confidence),
            "n_points": int(fit.n_points),
        }
    except ValueError:
        pass

    label = rep.class_label if rep.class_label != "undecided" else None
    verdict = rep.realization_verdict
    if measured is not None and label is not None:
        if abs(measured["p_hat"] - rep.predicted_exponent) > 0.3:
            diagnostics.append(
                "measured exponent %.2f disagrees with predicted %d"
                % (measured["p_hat"], rep.predicted_exponent))
    for name, entry in residuals.items():
        value = entry["value"]
        if value is not None and value >= entry["tolerance"]:
            diagnostics.append("residual %s = %.3e at or above tolerance %.1e"
                               % (name, value, entry["tolerance"]))
    if residuals["finite_rank"]["constant"] is False:
        diagnostics.append("finite-rank compression is not depth-constant")
    if diagnostics:
        label = None
        verdict = "undecided"

    report = {
        "label": sysdoc.label,
        "normalization": _NORMALIZATION,
        "tool": {"name": "freerep", "version": __version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tolerances": {"tol": tol, "nmax": nmax,
                       "seed": None if seed is None else int(seed)},
        "rho_T": float(nsys.rho_certificate),
        "rho_D": float(rep.rho_D),
        "mult_one": int(rep.mult_one),
        "dim_one": int(rep.dim_one),
        "twins_equivalent": bool(rep.twins_equivalent),
        "class": label,
        "predicted_exponent": int(rep.predicted_exponent),
        "verdict": verdict,
        "trace_condition": [float(rep.trace_condition_value.real),
                            float(rep.trace_condition_value.imag)],
        "q_least_squares": (float(rep.q_residual)
                            if np.isfinite(rep.q_residual) else -1.0),
        "residuals": residuals,
        "measured_exponent": measured,
        "series_cutoff": bool(series.cutoff),
        "diagnostics": diagnostics,
    }
    validate_report(report)
    code = EXIT_UNDECIDED if verdict == "undecided" else EXIT_OK
    return report, code


def _write_or_print(text, out):
    """Print ``text`` or write it to ``out``."""
    if out is not None:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError("cannot write %s: %s"
                           % (out, exc.strerror or exc)) from None
        text = "wrote: %s\n" % out
    sys.stdout.write(text)


def cmd_validate(args):
    def run(path):
        with _naming(path):
            doc = _load(path)
        violations = validate(doc.system)
        if violations:
            raise CliError("%s: %s" % (path, "; ".join(violations)))
        print("ok: %s (k=%d, dims=%s)"
              % (path, doc.system.alphabet.k, list(doc.system.dims)))
        return EXIT_OK

    return _each(args.paths, run)


def cmd_normalize(args):
    with _naming(args.path):
        doc = _load(args.path)
        nsys = normalize(doc.system)
    out_doc = system_to_doc(nsys.system, B=nsys.B, label=doc.label)
    _write_or_print(dump_json(out_doc), args.out)
    return EXIT_OK


def _check_flags(args):
    tol = getattr(args, "tol", None)
    if tol is not None and not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise CliError("tol must lie in [%g, %g]" % TOL_RANGE)
    nmax = getattr(args, "nmax", None)
    if nmax is not None and not 0 <= nmax <= NMAX_LIMIT:
        raise CliError("nmax must lie in [0, %d]" % NMAX_LIMIT)
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise CliError("seed must be non-negative")


def cmd_classify(args):
    _check_flags(args)
    if len(args.paths) > 1 and args.out is not None:
        raise CliError("--out needs a single input; use --out-dir for "
                       "several")
    if args.out is not None and args.out_dir is not None:
        raise CliError("--out and --out-dir exclude each other")
    targets = {path: args.out for path in args.paths}
    if args.out_dir is not None:
        names = [Path(args.out_dir) / (Path(path).stem + ".report.json")
                 for path in args.paths]
        clashes = sorted({str(t) for t in names if names.count(t) > 1})
        if clashes:
            raise CliError("--out-dir would write %s more than once; give "
                           "the inputs distinct file names"
                           % ", ".join(clashes))
        try:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("cannot create --out-dir %s: %s"
                           % (args.out_dir, exc.strerror or exc)) from None
        targets = dict(zip(args.paths, names))

    def run(path):
        with _naming(path):
            report, code = classification_report(_load(path), args.tol,
                                                 args.nmax, args.seed)
        _write_or_print(dump_json(report), targets[path])
        return code

    return _each(args.paths, run)


def _parse_edge(nsys, text):
    """Vector argument ``e|letter`` or ``e|letter|index`` (0-based basis
    index); only first-shell edges are supported."""
    parts = text.split("|")
    if len(parts) not in (2, 3):
        raise ValueError("vector must be of the form 'e|letter'")
    word = nsys.alphabet.parse_word(parts[0])
    if word != ():
        raise ValueError("only first-shell edges (e|letter) are supported")
    letter = nsys.alphabet.parse_letter(parts[1])
    index = 0
    if len(parts) == 3:
        index = int(parts[2])
        if not 0 <= index < nsys.dims[letter]:
            raise ValueError("basis index %d out of range for letter %r"
                             % (index, parts[1]))
    v = np.zeros(nsys.dims[letter], dtype=complex)
    v[index] = 1.0
    return first_shell(nsys, {letter: v})


def series_csv(series):
    lines = ["n,s_n"]
    lines.extend("%d,%r" % (n, sn) for n, sn in enumerate(series.s))
    return "\n".join(lines) + "\n"


def cmd_series(args):
    _check_flags(args)
    with _naming(args.path):
        doc = _load(args.path)
        f = _parse_edge(normalize(doc.system), args.vector)
    mirror_path = None
    if args.out is not None:
        mirror_path = Path(args.out).with_suffix(".json")
        for path, what in ((args.path, "the input"), (args.out, "the CSV")):
            if mirror_path.resolve() == Path(path).resolve():
                raise CliError("JSON mirror %s would overwrite %s; choose "
                               "another --out" % (mirror_path, what))
    series = sphere_sums(f, f, args.nmax)
    _write_or_print(series_csv(series), args.out)
    if args.out is not None:
        mirror = {
            "label": doc.label,
            "vector": args.vector,
            "nmax": series.nmax,
            "cutoff": series.cutoff,
            "v_norm": float(series.v_norm),
            "s": [float(sn) for sn in series.s],
        }
        _write_or_print(dump_json(mirror), str(mirror_path))
    return EXIT_OK


def cmd_demo(args):
    _check_flags(args)
    seed = 0 if args.seed is None else args.seed
    if args.name == "endpoint-f2":
        system, label = generate.s0_system(), "endpoint-f2"
    elif args.name == "random-ai":
        system, label = generate.ai_instance(seed), "random-ai seed=%d" % seed
    else:
        system, label = generate.bi_instance(seed), "random-bi seed=%d" % seed
    sysdoc = SystemDocument(system=system, B=None, label=label)
    with _naming(label):
        report, code = classification_report(sysdoc, args.tol, args.nmax,
                                             seed)
    _write_or_print(dump_json(report), args.out)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freerep",
        description="Matrix systems over free groups: validation, "
                    "normalization, classification, coefficient series.",
    )
    parser.add_argument("--version", action="version",
                        version="freerep %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check system files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="write the normalized system")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="full pipeline into a report")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("series", help="sphere-sum series as CSV")
    p.add_argument("path")
    p.add_argument("--vector", required=True,
                   help="first-shell edge, e.g. 'e|a'")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("demo", help="bundled example run")
    p.add_argument("name", choices=_DEMOS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_demo)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """:func:`build_parser`, built once per process: a batch calls
    :func:`main` once per system, and building the parser costs more than
    parsing its arguments."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
