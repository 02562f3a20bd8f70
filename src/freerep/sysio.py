"""JSON encodings for systems and classification reports.

A system document names its generators, gives one dimension per letter
(the inverse of ``"a"`` is written ``"a^-1"``), and stores blocks under
``"b|a"`` keys as row-major matrices of ``[re, im]`` pairs.  Absent keys
mean zero blocks; the pair with ``b = a^-1`` must be absent.  Reports
mirror the classification pipeline and validate against the bundled
schema.
"""

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import jsonschema
import numpy as np

from .freegroup import Alphabet
from .systems import MatrixSystem

_SYSTEM_FIELDS = {"generators", "dims", "H", "B", "label"}


def _fail(msg):
    raise ValueError(msg)


def encode_matrix(m):
    """Row-major nested lists of ``[re, im]`` pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _is_pair(entry):
    """Whether ``entry`` is an ``[re, im]`` pair of numbers, bools not
    counted as numbers."""
    return (isinstance(entry, list) and len(entry) == 2
            and all(_is_real(type(t)) for t in entry))


def _is_real(kind):
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def decode_matrix(obj, shape, where):
    """Inverse of :func:`encode_matrix`, shape-checked.

    A row is checked at once: its entries are pairs and the types of their
    numbers are real, else the first entry that is no ``[re, im]`` pair is
    named.  The checked block is converted at once, each pair read as one
    complex number."""
    if not isinstance(obj, list) or len(obj) != shape[0]:
        _fail("%s: expected %d rows" % (where, shape[0]))
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != shape[1]:
            _fail("%s: row %d must have %d entries" % (where, i, shape[1]))
        if not (all(isinstance(e, list) and len(e) == 2 for e in row)
                and all(map(_is_real, {type(t) for e in row for t in e}))):
            j = next(j for j, e in enumerate(row) if not _is_pair(e))
            _fail("%s: entry (%d, %d) must be an [re, im] pair"
                  % (where, i, j))
    return np.array(obj, dtype=float).view(complex).reshape(shape)


@dataclass(frozen=True)
class SystemDocument:
    """A parsed system file: the system, its optional stored form tuple
    (purely informational; normalization always recomputes it), and the
    optional label."""

    system: MatrixSystem
    B: Optional[tuple]
    label: Optional[str]


def parse_system(doc):
    """Build a :class:`SystemDocument` from a decoded JSON object.

    Raises
    ------
    ValueError
        On any structural violation, with the offending key named.
    """
    if not isinstance(doc, dict):
        _fail("top level must be a JSON object")
    unknown = set(doc) - _SYSTEM_FIELDS
    if unknown:
        _fail("unknown field %r" % sorted(unknown)[0])
    gens = doc.get("generators")
    if (not isinstance(gens, list) or len(gens) < 2
            or not all(isinstance(g, str) and g for g in gens)):
        _fail("generators must be a list of at least two non-empty names")
    if len(set(gens)) != len(gens):
        _fail("generator names must be distinct")
    if any("|" in g or g.endswith("^-1") for g in gens):
        _fail("generator names must not contain '|' or end in '^-1'")
    alphabet = Alphabet(len(gens), generator_names=gens)

    dims_obj = doc.get("dims")
    if not isinstance(dims_obj, dict):
        _fail("dims must be an object mapping letters to dimensions")
    for name in dims_obj:
        if name not in alphabet.names:
            _fail("dims key %r is not a letter of the alphabet" % name)
    dims = []
    for name in alphabet.names:
        if name not in dims_obj:
            _fail("dims is missing letter %r (inverses included)" % name)
        n = dims_obj[name]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            _fail("dims[%r] must be a positive integer" % name)
        dims.append(n)

    h_obj = doc.get("H")
    if not isinstance(h_obj, dict):
        _fail("H must be an object with 'b|a' keys")
    blocks = {}
    for key, mat in h_obj.items():
        parts = key.split("|")
        if len(parts) != 2:
            _fail("H key %r is not of the form 'b|a'" % key)
        try:
            b = alphabet.parse_letter(parts[0])
            a = alphabet.parse_letter(parts[1])
        except ValueError:
            _fail("H key %r references an unknown letter" % key)
        if b == a ^ 1:
            _fail("H key %r joins a letter to its inverse (ba = e); "
                  "such blocks must be absent" % key)
        blocks[(b, a)] = decode_matrix(mat, (dims[b], dims[a]),
                                       "H[%r]" % key)

    b_tuple = None
    b_obj = doc.get("B")
    if b_obj is not None:
        if not isinstance(b_obj, dict):
            _fail("B must be an object mapping letters to matrices")
        mats = []
        for name in alphabet.names:
            if name not in b_obj:
                _fail("B is missing letter %r" % name)
            c = alphabet.parse_letter(name)
            mats.append(decode_matrix(b_obj[name], (dims[c], dims[c]),
                                      "B[%r]" % name))
        for name in b_obj:
            if name not in alphabet.names:
                _fail("B key %r is not a letter of the alphabet" % name)
        b_tuple = tuple(mats)

    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        _fail("label must be a string")
    return SystemDocument(
        system=MatrixSystem(alphabet, dims, blocks), B=b_tuple, label=label,
    )


def load_system(path):
    """Parse the system document at ``path``.

    ``json.JSONDecodeError`` (with line/column) propagates for malformed
    JSON; structural violations raise ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_system(doc)


def system_to_doc(system, B=None, label=None):
    """JSON-ready document for a system, inverse to :func:`parse_system`."""
    alphabet = system.alphabet
    doc = {
        "generators": list(alphabet.generator_names),
        "dims": {alphabet.letter_name(c): system.dims[c]
                 for c in alphabet.letters},
        "H": {
            "%s|%s" % (alphabet.letter_name(b), alphabet.letter_name(a)):
                encode_matrix(block)
            for (b, a), block in sorted(system.blocks.items())
        },
    }
    if B is not None:
        doc["B"] = {alphabet.letter_name(c): encode_matrix(B[c])
                    for c in alphabet.letters}
    if label is not None:
        doc["label"] = label
    return doc


def dump_json(doc):
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_report_schema():
    ref = resources.files("freerep") / "schema" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=1)
def _report_validator():
    """Validator of the bundled schema, checked and built once."""
    schema = load_report_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(doc):
    """Validate a report against the bundled schema (unknown fields are
    rejected there); raises ``jsonschema.ValidationError``, the same one
    ``jsonschema.validate`` picks."""
    error = jsonschema.exceptions.best_match(
        _report_validator().iter_errors(doc))
    if error is not None:
        raise error
