"""System-file JSON codec and report-schema validation."""

import json

import jsonschema
import numpy as np
import pytest

from freerep import generate
from freerep.freegroup import Alphabet
from freerep.systems import MatrixSystem
from freerep.sysio import (
    decode_matrix,
    dump_json,
    encode_matrix,
    load_report_schema,
    load_system,
    parse_system,
    system_to_doc,
    validate_report,
)


def s0_doc():
    return system_to_doc(generate.s0_system(), label="s0")


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        back = decode_matrix(encode_matrix(m), (2, 3), "here")
        assert np.array_equal(back, m)

    def test_row_count_checked(self):
        with pytest.raises(ValueError, match="expected 2 rows"):
            decode_matrix([[[1.0, 0.0]]], (2, 1), "H")

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="row 0 must have 2"):
            decode_matrix([[[1.0, 0.0]]], (1, 2), "H")

    def test_entry_shape_checked(self):
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            decode_matrix([[[1.0, 0.0, 2.0]]], (1, 1), "H")
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            decode_matrix([[[True, False]]], (1, 1), "H")

    @pytest.mark.parametrize("bad", (True, "1.0", None, [1.0]))
    def test_first_bad_entry_named(self, bad):
        rows = [[[1, 0.5], [2.0, -1]], [[0.0, 1.0], [0.0, 1.0]]]
        rows[1][1] = [0.0, bad]
        with pytest.raises(ValueError, match=r"^H: entry \(1, 1\) must be an "
                           r"\[re, im\] pair$"):
            decode_matrix(rows, (2, 2), "H")
        rows[1][0] = "x"
        with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
            decode_matrix(rows, (2, 2), "H")

    def test_pairs_read_as_complex_numbers(self):
        rows = [[[1, -0.0], [-0.0, 2]], [[3.5, -1e-300], [10**17 + 1, 0.1]]]
        back = decode_matrix(rows, (2, 2), "H")
        want = np.array([[complex(*e) for e in row] for row in rows])
        assert back.dtype == complex and back.shape == (2, 2)
        assert back.tobytes() == want.tobytes()


class TestParseSystem:
    def test_s0_round_trip(self):
        doc = s0_doc()
        parsed = parse_system(doc)
        s0 = generate.s0_system()
        assert parsed.label == "s0"
        assert parsed.system.dims == s0.dims
        assert parsed.system.alphabet.names == s0.alphabet.names
        for key, block in s0.blocks.items():
            assert np.array_equal(parsed.system.blocks[key], block)

    def test_custom_names_round_trip(self):
        base = generate.random_system(9, k=2, max_dim=2)
        renamed = MatrixSystem(Alphabet(2, ("u", "w")), base.dims,
                               base.blocks)
        parsed = parse_system(system_to_doc(renamed))
        assert parsed.system.alphabet.names == ("u", "u^-1", "w", "w^-1")
        for key, block in renamed.blocks.items():
            assert np.array_equal(parsed.system.blocks[key], block)

    def test_unknown_field_rejected(self):
        doc = s0_doc()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown field 'extra'"):
            parse_system(doc)

    def test_generators_validated(self):
        doc = s0_doc()
        doc["generators"] = ["a"]
        with pytest.raises(ValueError, match="at least two"):
            parse_system(doc)
        doc["generators"] = ["a", "a"]
        with pytest.raises(ValueError, match="distinct"):
            parse_system(doc)
        doc["generators"] = ["a", "b^-1"]
        with pytest.raises(ValueError, match="must not contain"):
            parse_system(doc)

    def test_dims_require_inverses(self):
        doc = s0_doc()
        del doc["dims"]["a^-1"]
        with pytest.raises(ValueError, match="missing letter 'a\\^-1'"):
            parse_system(doc)

    def test_dims_positive_integer(self):
        doc = s0_doc()
        doc["dims"]["a"] = 0
        with pytest.raises(ValueError, match="positive integer"):
            parse_system(doc)
        doc["dims"]["a"] = True
        with pytest.raises(ValueError, match="positive integer"):
            parse_system(doc)

    def test_dims_unknown_letter(self):
        doc = s0_doc()
        doc["dims"]["q"] = 1
        with pytest.raises(ValueError, match="not a letter"):
            parse_system(doc)

    def test_h_key_form(self):
        doc = s0_doc()
        doc["H"]["a"] = [[[1.0, 0.0]]]
        with pytest.raises(ValueError, match="not of the form"):
            parse_system(doc)

    def test_h_unknown_letter(self):
        doc = s0_doc()
        doc["H"]["q|a"] = [[[1.0, 0.0]]]
        with pytest.raises(ValueError, match="unknown letter"):
            parse_system(doc)

    def test_h_inverse_pair_rejected(self):
        doc = s0_doc()
        doc["H"]["a^-1|a"] = [[[0.1, 0.0]]]
        with pytest.raises(ValueError, match="ba = e"):
            parse_system(doc)

    def test_h_shape_checked(self):
        doc = s0_doc()
        doc["H"]["b|a"] = [[[1.0, 0.0], [2.0, 0.0]]]
        with pytest.raises(ValueError, match="row 0 must have 1"):
            parse_system(doc)

    def test_b_round_trip_and_checks(self):
        base = generate.s0_system()
        B = tuple(np.eye(1, dtype=complex) for _ in range(4))
        doc = system_to_doc(base, B=B)
        parsed = parse_system(doc)
        assert all(np.array_equal(m, np.eye(1)) for m in parsed.B)
        del doc["B"]["a"]
        with pytest.raises(ValueError, match="B is missing letter 'a'"):
            parse_system(doc)

    def test_label_type_checked(self):
        doc = s0_doc()
        doc["label"] = 7
        with pytest.raises(ValueError, match="label must be a string"):
            parse_system(doc)

    def test_absent_h_keys_are_zero_blocks(self):
        doc = s0_doc()
        del doc["H"]["b|a"]
        parsed = parse_system(doc)
        assert (2, 0) not in parsed.system.blocks
        assert np.all(parsed.system.h(2, 0) == 0)


class TestLoadSystem:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "s0.json"
        path.write_text(dump_json(s0_doc()), encoding="utf-8")
        parsed = load_system(path)
        assert parsed.label == "s0"

    def test_malformed_json_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "generators": [\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as err:
            load_system(path)
        assert err.value.lineno == 3


class TestReportSchema:
    def test_schema_is_closed(self):
        schema = load_report_schema()
        assert schema["additionalProperties"] is False
        assert schema["properties"]["class"]["enum"] == [
            "AI", "AII", "BI", "BII", None]

    def test_unknown_report_field_rejected(self, s0_norm):
        from freerep.cli import classification_report
        from freerep.sysio import SystemDocument
        doc = SystemDocument(system=generate.s0_system(), B=None, label=None)
        report, _ = classification_report(doc, 1e-9, 0)
        validate_report(report)
        report["surprise"] = True
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)
