"""Command-line surface: exit codes, file outputs, report contents."""

import ast
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freerep import (cli, generate, intertwiner, series, spectral,
                     systems, twin)
from freerep.cli import (
    NMAX_LIMIT,
    build_parser,
    classification_report,
    main,
)
from freerep.sysio import (SystemDocument, dump_json, load_system,
                           system_to_doc, validate_report)
from test_spectral import _conditioned_gauge, _gauged


@pytest.fixture(scope="module")
def s0_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "s0.json"
    doc = system_to_doc(generate.s0_system(), label="s0")
    path.write_text(dump_json(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def ai_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "ai.json"
    doc = system_to_doc(generate.ai_instance(3), label="ai-3")
    path.write_text(dump_json(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def bi_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "bi.json"
    doc = system_to_doc(generate.bi_instance(7), label="bi-7")
    path.write_text(dump_json(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def s0_report(s0_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "s0.report.json"
    code = main(["classify", str(s0_file), "--out", str(out), "--nmax", "10"])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ai_report(ai_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "ai.report.json"
    code = main(["classify", str(ai_file), "--out", str(out), "--nmax", "8"])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bi_report(bi_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "bi.report.json"
    code = main(["classify", str(bi_file), "--out", str(out), "--nmax", "8"])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestValidate:
    def test_ok(self, s0_file, capsys):
        assert main(["validate", str(s0_file)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "k=2" in out

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "generators": [\n', encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert re.search(r"line 3 column \d+", err)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_inverse_pair_key(self, s0_file, tmp_path, capsys):
        doc = json.loads(s0_file.read_text(encoding="utf-8"))
        doc["H"]["a^-1|a"] = [[[0.5, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "ba = e" in capsys.readouterr().err

    def test_unknown_field(self, s0_file, tmp_path, capsys):
        doc = json.loads(s0_file.read_text(encoding="utf-8"))
        doc["spin"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ("dims", "entry"))
    def test_json_booleans_rejected(self, s0_file, tmp_path, capsys, where):
        doc = json.loads(s0_file.read_text(encoding="utf-8"))
        if where == "dims":
            doc["dims"]["a"] = True
        else:
            doc["H"]["a|a"] = [[[True, False]]]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_multiple_paths_worst_exit_wins(self, s0_file, tmp_path):
        missing = tmp_path / "gone.json"
        assert main(["validate", str(s0_file), str(missing)]) == 1


class TestNormalize:
    def test_round_trip_is_stable(self, s0_file, tmp_path):
        first = tmp_path / "norm1.json"
        second = tmp_path / "norm2.json"
        assert main(["normalize", str(s0_file), "--out", str(first)]) == 0
        assert main(["normalize", str(first), "--out", str(second)]) == 0
        d1 = json.loads(first.read_text(encoding="utf-8"))
        d2 = json.loads(second.read_text(encoding="utf-8"))
        for key, rows in d1["H"].items():
            flat1 = [x for row in rows for pair in row for x in pair]
            flat2 = [x for row in d2["H"][key] for pair in row for x in pair]
            assert flat1 == pytest.approx(flat2, abs=1e-9)
        for key, rows in d1["B"].items():
            flat1 = [x for row in rows for pair in row for x in pair]
            flat2 = [x for row in d2["B"][key] for pair in row for x in pair]
            assert flat1 == pytest.approx(flat2, abs=1e-9)

    def test_invalid_input_exits_1(self, tmp_path, capsys):
        doc = system_to_doc(generate.s0_system().scaled(float("nan")))
        path = tmp_path / "nan.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        assert main(["normalize", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestClassify:
    def test_s0_is_bii(self, s0_report):
        code, report = s0_report
        assert code == 0
        validate_report(report)
        assert report["label"] == "s0"
        assert report["class"] == "BII"
        assert report["verdict"] == "monotony"
        assert report["predicted_exponent"] == 3
        assert report["dim_one"] == 2
        assert report["mult_one"] == 4
        assert report["twins_equivalent"] is True
        assert report["rho_T"] == pytest.approx(1.0, abs=1e-8)
        # no intertwiner for BII: the J-dependent rows stay null
        for key in ("inverse_relations", "word_identity", "isometry",
                    "intertwining", "split", "split_commutation"):
            assert report["residuals"][key]["value"] is None
        assert report["measured_exponent"]["p_hat"] == pytest.approx(3.0,
                                                                     abs=0.3)

    def test_ai_report_residuals(self, ai_report):
        code, report = ai_report
        assert code == 0
        validate_report(report)
        assert report["class"] == "AI"
        assert report["verdict"] == "duplicity"
        assert report["predicted_exponent"] == 1
        assert report["twins_equivalent"] is False
        assert report["mult_one"] == 2
        for key in ("compatibility", "q_equation", "q_antisymmetry",
                    "inverse_relations", "word_identity", "isometry",
                    "intertwining"):
            entry = report["residuals"][key]
            assert entry["value"] is not None
            assert entry["value"] < entry["tolerance"]
        # AI has no splitting step
        assert report["residuals"]["split"]["value"] is None
        fr = report["residuals"]["finite_rank"]
        assert fr["constant"] is True
        assert len(fr["profile"]) == 12
        for cell in fr["profile"].values():
            assert len(set(cell["ranks"])) == 1
            assert cell["ranks"][0] <= cell["cap"]

    def test_bi_report_includes_split(self, bi_report):
        code, report = bi_report
        assert code == 0
        validate_report(report)
        assert report["class"] == "BI"
        assert report["verdict"] == "oddity-split"
        assert report["predicted_exponent"] == 1
        assert report["twins_equivalent"] is True
        for key in ("split", "split_commutation"):
            entry = report["residuals"][key]
            assert entry["value"] is not None
            assert entry["value"] < entry["tolerance"]

    def test_deterministic_apart_from_timestamp(self, s0_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["classify", str(s0_file), "--out", str(out1),
                     "--nmax", "6"]) == 0
        assert main(["classify", str(s0_file), "--out", str(out2),
                     "--nmax", "6"]) == 0
        d1 = json.loads(out1.read_text(encoding="utf-8"))
        d2 = json.loads(out2.read_text(encoding="utf-8"))
        d1["timestamp"] = d2["timestamp"] = "X"
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2,
                                                            sort_keys=True)

    @pytest.mark.parametrize("fixture, calls", [("s0_file", 1),
                                                ("ai_file", 2)])
    def test_pairing_maps_once_per_system(self, fixture, calls, request,
                                          tmp_path, monkeypatch):
        # E of the classified system once; AI adds the twin's Ê with the
        # forms B̂ of the intertwiner
        count = []
        e_maps = twin.e_maps

        def counting(nsys):
            count.append(nsys)
            return e_maps(nsys)

        for module in (twin, series, spectral, intertwiner):
            if getattr(module, "e_maps", None) is e_maps:
                monkeypatch.setattr(module, "e_maps", counting)
        path = request.getfixturevalue(fixture)
        assert main(["classify", str(path), "--out",
                     str(tmp_path / "r.json"), "--nmax", "8"]) == 0
        assert len(count) == calls

    def test_tol_range_flagged(self, s0_file, capsys):
        assert main(["classify", str(s0_file), "--tol", "1e-15"]) == 1
        assert "tol" in capsys.readouterr().err
        assert main(["classify", str(s0_file), "--tol", "1e-3"]) == 1

    def test_nmax_range_flagged(self, s0_file, capsys):
        assert main(["classify", str(s0_file), "--nmax", "4097"]) == 1
        assert "nmax" in capsys.readouterr().err
        assert NMAX_LIMIT == 4096

    def test_out_with_many_inputs_rejected(self, s0_file, ai_file, tmp_path,
                                           capsys):
        out = tmp_path / "r.json"
        code = main(["classify", str(s0_file), str(ai_file),
                     "--out", str(out)])
        assert code == 1
        assert "--out-dir" in capsys.readouterr().err

    def test_out_with_out_dir_rejected(self, s0_file, tmp_path, capsys):
        out, out_dir = tmp_path / "r.json", tmp_path / "reports"
        code = main(["classify", str(s0_file), "--out", str(out),
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert "--out-dir" in capsys.readouterr().err
        assert not out.exists() and not out_dir.exists()

    def test_out_dir_many_inputs(self, s0_file, ai_file, tmp_path):
        out_dir = tmp_path / "reports"
        code = main(["classify", str(s0_file), str(ai_file),
                     "--out-dir", str(out_dir), "--nmax", "6"])
        assert code == 0
        for stem in ("s0", "ai"):
            report = json.loads(
                (out_dir / f"{stem}.report.json").read_text(encoding="utf-8"))
            validate_report(report)

    def test_out_dir_refuses_colliding_report_names(self, s0_file, ai_file,
                                                    tmp_path, capsys):
        # same file name in two directories, and one path given twice
        other = tmp_path / "elsewhere" / s0_file.name
        other.parent.mkdir()
        other.write_text(ai_file.read_text(encoding="utf-8"),
                         encoding="utf-8")
        out_dir = tmp_path / "reports"
        for paths in ((s0_file, other), (ai_file, s0_file, ai_file)):
            code = main(["classify", *map(str, paths),
                         "--out-dir", str(out_dir), "--nmax", "6"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert paths[-1].stem + ".report.json" in err
            assert not out_dir.exists()

    def test_missing_input_does_not_block_others(self, s0_file, tmp_path,
                                                 capsys):
        out_dir = tmp_path / "reports"
        code = main(["classify", str(s0_file), str(tmp_path / "gone.json"),
                     "--out-dir", str(out_dir), "--nmax", "6"])
        assert code == 1
        assert (out_dir / "s0.report.json").exists()

    def test_long_horizon_k3_not_cut(self, tmp_path):
        # k = 3 with dims up to 3 was cut at n = 6 by the old enumeration
        # budget; the recursion computes the whole series
        doc = system_to_doc(generate.random_system(2, k=3, max_dim=3),
                            label="big")
        path = tmp_path / "big.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        out = tmp_path / "big.report.json"
        main(["classify", str(path), "--out", str(out), "--nmax", "14"])
        report = json.loads(out.read_text(encoding="utf-8"))
        validate_report(report)
        assert report["series_cutoff"] is False
        assert report["tolerances"]["nmax"] == 14
        assert not any("budget" in d for d in report["diagnostics"])


class TestSeries:
    def test_s0_first_shell_value(self, s0_file, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["series", str(s0_file), "--vector", "e|a",
                     "--nmax", "8", "--out", str(out)])
        assert code == 0
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "s_n"]
        values = {int(n): float(s) for n, s in rows[1:]}
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert len(values) == 9
        mirror = json.loads(
            out.with_suffix(".json").read_text(encoding="utf-8"))
        assert mirror["vector"] == "e|a"
        assert mirror["s"] == [values[n] for n in range(9)]

    def test_indexed_vector_component(self, ai_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["series", str(ai_file), "--vector", "e|a|0",
                     "--nmax", "4", "--out", str(out)]) == 0

    def test_vector_parse_errors(self, s0_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["series", str(s0_file), "--vector", "a|a",
                     "--out", str(out)]) == 1
        assert "first-shell" in capsys.readouterr().err
        assert main(["series", str(s0_file), "--vector", "e|q",
                     "--out", str(out)]) == 1
        assert main(["series", str(s0_file), "--vector", "e|a|5",
                     "--out", str(out)]) == 1

    def test_mirror_collision_guard(self, s0_file, tmp_path, capsys):
        target = tmp_path / "s0.json"
        target.write_text(s0_file.read_text(encoding="utf-8"),
                          encoding="utf-8")
        code = main(["series", str(target), "--vector", "e|a",
                     "--out", str(tmp_path / "s0.csv")])
        assert code == 1
        assert "overwrite the input" in capsys.readouterr().err
        # input survived untouched
        assert "generators" in json.loads(target.read_text(encoding="utf-8"))

    def test_mirror_equal_to_out_rejected(self, s0_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["series", str(s0_file), "--vector", "e|a",
                     "--out", str(out)])
        assert code == 1
        assert "overwrite the CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_long_horizon_k3_exits_0(self, tmp_path):
        doc = system_to_doc(generate.random_system(5, k=3, max_dim=3))
        path = tmp_path / "big.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(["series", str(path), "--vector", "e|a",
                     "--nmax", "14", "--out", str(out)])
        assert code == 0
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 15
        mirror = json.loads(
            out.with_suffix(".json").read_text(encoding="utf-8"))
        assert mirror["cutoff"] is False
        assert mirror["nmax"] == 14


class TestDemo:
    def test_endpoint_f2(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", "endpoint-f2", "--out", str(out),
                     "--nmax", "10"])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        validate_report(report)
        assert report["class"] == "BII"
        assert report["dim_one"] == 2
        assert report["predicted_exponent"] == 3

    def test_random_ai(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", "random-ai", "--seed", "3", "--out", str(out),
                     "--nmax", "6"])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["class"] == "AI"
        assert report["tolerances"]["seed"] == 3

    def test_random_bi(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", "random-bi", "--seed", "7", "--out", str(out),
                     "--nmax", "6"])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["class"] == "BI"

    @pytest.mark.parametrize("name,seed", [("random-ai", "-1"),
                                           ("random-bi", "-3")])
    def test_negative_seed_flagged(self, name, seed, capsys):
        assert main(["demo", name, "--seed", seed]) == 1
        assert capsys.readouterr().err.startswith("error: seed")


def perturbed_ai_doc(scale):
    import numpy as np

    from freerep.systems import MatrixSystem
    base = generate.ai_instance(3)
    rng = np.random.default_rng(0)
    blocks = {key: block + scale * rng.normal(size=block.shape)
              for key, block in base.blocks.items()}
    return SystemDocument(system=MatrixSystem(base.alphabet, base.dims,
                                              blocks),
                          B=None, label="perturbed")


class TestReportFunction:
    def test_classifier_level_undecided(self):
        # 1e-7 noise pushes the Q residual past the acceptance cut
        report, code = classification_report(perturbed_ai_doc(1e-7), 1e-9, 4)
        assert code == 2
        assert report["verdict"] == "undecided"
        assert report["class"] is None
        assert any("Q tuple" in d for d in report["diagnostics"])

    def test_report_level_demotion(self):
        # 1e-11 noise classifies cleanly but breaches a 1e-12 tolerance
        report, code = classification_report(perturbed_ai_doc(1e-11),
                                             1e-12, 4)
        assert code == 2
        assert report["verdict"] == "undecided"
        assert report["class"] is None
        entry = report["residuals"]["q_equation"]
        assert entry["value"] is not None
        assert entry["value"] >= entry["tolerance"]
        assert any("at or above tolerance" in d
                   for d in report["diagnostics"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--version"])
        assert err.value.code == 0
        assert "freerep" in capsys.readouterr().out

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        # a batch calls main once per system; the parser is built once
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda _build=build_parser:
                            built.append(1) or _build())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(SystemExit) as err:
                    main(["--version"])
                assert err.value.code == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().out.count("freerep") == 2


class TestUnusablePaths:
    """An input that cannot be read or an output that cannot be written
    ends in one ``error:`` line and exit 1, not in a traceback."""

    @staticmethod
    def _one_error(capsys):
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        return captured

    def test_validate_directory_input(self, s0_file, tmp_path, capsys):
        assert main(["validate", str(tmp_path), str(s0_file)]) == 1
        captured = self._one_error(capsys)
        assert "cannot read %s" % tmp_path in captured.err
        assert "ok: %s" % s0_file in captured.out

    def test_classify_directory_input(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path), "--nmax", "6"]) == 1
        assert "cannot read" in self._one_error(capsys).err

    def test_directory_input_does_not_block_others(self, s0_file, tmp_path,
                                                   capsys):
        out_dir = tmp_path / "out"
        code = main(["classify", str(tmp_path), str(s0_file),
                     "--out-dir", str(out_dir), "--nmax", "6"])
        assert code == 1
        self._one_error(capsys)
        validate_report(json.loads(
            (out_dir / "s0.report.json").read_text(encoding="utf-8")))

    @pytest.mark.parametrize("argv", [
        ("normalize", "{system}", "--out", "{out}"),
        ("classify", "{system}", "--out", "{out}", "--nmax", "6"),
        ("series", "{system}", "--vector", "e|a", "--out", "{out}"),
        ("demo", "endpoint-f2", "--out", "{out}", "--nmax", "6"),
    ], ids=lambda argv: argv[0])
    def test_out_is_a_directory(self, argv, s0_file, tmp_path, capsys):
        code = main([a.format(system=s0_file, out=tmp_path) for a in argv])
        assert code == 1
        assert "cannot write %s" % tmp_path in self._one_error(capsys).err

    def test_out_dir_is_a_file(self, s0_file, tmp_path, capsys, monkeypatch):
        # refused before any input is classified
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "classification_report", None)
        code = main(["classify", str(s0_file), "--out-dir", str(taken)])
        assert code == 1
        assert "cannot create --out-dir" in self._one_error(capsys).err


# each command that reads one system file, with the flags after the path
_ONE_INPUT = [("validate",), ("normalize",), ("classify", "--nmax", "6"),
              ("series", "--vector", "e|a")]


@pytest.mark.parametrize("argv", _ONE_INPUT, ids=lambda argv: argv[0])
def test_invalid_system_names_the_path(argv, tmp_path, capsys):
    # the file parses, but validate refuses it: validate reports it
    # itself, the other commands through normalize
    system = generate.s0_system()
    blocks = dict(system.blocks)
    blocks[0, 0] = 0 * blocks[0, 0]
    path = tmp_path / "zero.json"
    path.write_text(dump_json(system_to_doc(type(system)(
        system.alphabet, system.dims, blocks))), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path), err
    assert "zero block at (a, a)" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", _ONE_INPUT, ids=lambda argv: argv[0])
def test_each_command_validates_once(argv, s0_file, monkeypatch, capsys):
    calls = []
    validate = systems.validate

    def counted(system):
        calls.append(system)
        return validate(system)

    monkeypatch.setattr(systems, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    assert main([argv[0], str(s0_file), *argv[1:]]) == 0
    assert len(calls) == 1


def _undecided_system():
    """Gauge copy of condition 1e4 of ``self_twin_system(0, k=2, dim=3)``
    whose fixed-point residual of ``B`` exceeds ``TOL_FIX``."""
    base = generate.self_twin_system(0, k=2, dim=3)
    return _gauged(base, _conditioned_gauge(np.random.default_rng(0),
                                            base.dims, 1e4))


@pytest.fixture(scope="module")
def undecided_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "cond.json"
    doc = system_to_doc(_undecided_system(), label="cond")
    path.write_text(dump_json(doc), encoding="utf-8")
    return path


class TestUndecidedNormalization:
    """An undecided normalization exits 2 on every command, in one
    ``error:`` line that names the input; an invalid input still wins."""

    UNDECIDED = ("normalization undecided: fixed-point residual "
                 r"\S+ of B exceeds 1e-10\n")

    def _one_line(self, capsys, name):
        err = capsys.readouterr().err
        assert re.fullmatch("error: %s: %s" % (re.escape(str(name)),
                                               self.UNDECIDED), err), err

    def test_normalize_raises_undecided(self, undecided_file):
        with pytest.raises(systems.UndecidedError,
                           match="fixed-point residual .* exceeds 1e-10"):
            systems.normalize(load_system(undecided_file).system)

    @pytest.mark.parametrize("argv", _ONE_INPUT[1:],
                             ids=lambda argv: argv[0])
    def test_exits_2(self, argv, undecided_file, capsys):
        assert main([argv[0], str(undecided_file), *argv[1:]]) == 2
        self._one_line(capsys, undecided_file)

    def test_demo_names_its_label(self, monkeypatch, capsys):
        monkeypatch.setattr(generate, "s0_system", _undecided_system)
        assert main(["demo", "endpoint-f2", "--nmax", "6"]) == 2
        self._one_line(capsys, "endpoint-f2")

    def test_out_dir_batch_runs_on(self, undecided_file, s0_file, tmp_path,
                                   capsys):
        out_dir = tmp_path / "reports"
        code = main(["classify", str(undecided_file), str(s0_file),
                     "--out-dir", str(out_dir), "--nmax", "6"])
        assert code == 2
        self._one_line(capsys, undecided_file)
        validate_report(json.loads(
            (out_dir / "s0.report.json").read_text(encoding="utf-8")))

    def test_invalid_input_wins(self, undecided_file, s0_file, tmp_path,
                                capsys):
        gone = tmp_path / "gone.json"
        code = main(["classify", str(undecided_file), str(s0_file),
                     str(gone), "--out-dir", str(tmp_path / "reports"),
                     "--nmax", "6"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("error: %s: normalization undecided"
                                 % undecided_file)
        assert err[1].startswith("error: cannot read %s" % gone)


def _names(node):
    """Names of the exception classes a handler or raise refers to."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_undecided_reaches_the_cli_as_one_type():
    # normalize fails with UndecidedError, and the CLI catches that, so a
    # RuntimeError from a bug is a traceback, not an "undecided" exit 2
    def parsed(module):
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    caught = [_names(h.type) for h in ast.walk(parsed(cli))
              if isinstance(h, ast.ExceptHandler) and h.type is not None]
    assert {"UndecidedError"} in caught
    assert not [n for n in caught if "RuntimeError" in n]
    raised = [_names(r.exc) for r in ast.walk(parsed(systems))
              if isinstance(r, ast.Raise) and r.exc is not None]
    assert any("UndecidedError" in n for n in raised)
    assert not [n for n in raised if "RuntimeError" in n]


def test_readme_commands_parse():
    # every `freerep …` line of README's command-line block, parsed only
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text,
                      re.DOTALL).group(1)
    commands = [line for line in block.splitlines()
                if line.startswith("freerep ")]
    assert len(commands) == 5
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])


def test_import_loads_no_scipy():
    # every CLI call pays for `import freerep`, and importing scipy.linalg
    # costs more than all of freerep: the package uses numpy.linalg only
    code = ("import sys, freerep.cli; print(sorted("
            "{m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
