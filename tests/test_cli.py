import json

import pytest

from harborth import golden
from harborth.cli import main
from harborth.pipeline import _poly_to_json


class TestUsage:
    def test_bad_stage_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["derive", "--stage", "9"])
        assert err.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_grid(self, capsys):
        assert main(["explore", "--grid", "1"]) == 2

    # derive has no --digits option, so argparse rejects it as an
    # unrecognized argument; the other commands reject the bad value
    @pytest.mark.parametrize("command", [["derive"], ["certify"],
                                         ["explore", "--grid", "3"]])
    @pytest.mark.parametrize("digits", ["0", "-5", "5", "abc"])
    def test_bad_digits(self, capsys, command, digits):
        with pytest.raises(SystemExit) as err:
            main(command + ["--digits", digits])
        assert err.value.code == 2
        assert "--digits" in capsys.readouterr().err

    @pytest.mark.parametrize("places", ["-3", "abc", "2.5"])
    def test_bad_render_places(self, tmp_path, capsys, places):
        out = tmp_path / "f.svg"
        with pytest.raises(SystemExit) as err:
            main(["render", "--digits", places, "--out", str(out)])
        assert err.value.code == 2
        assert "--digits" in capsys.readouterr().err
        assert not out.exists()

    def test_derive_has_no_digits(self, capsys):
        # derive never reads the working precision
        with pytest.raises(SystemExit) as err:
            main(["derive", "--digits", "200"])
        assert err.value.code == 2
        assert "unrecognized arguments: --digits 200" in \
            capsys.readouterr().err


class TestExplore:
    def test_grid_three(self, capsys):
        assert main(["explore", "--grid", "3"]) == 0
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        assert len(rows) == 4  # header + three samples
        assert "85.88496" in rows[1]
        assert "94.59042" in rows[3]

    @pytest.mark.parametrize("digits", ["15", "60"])
    def test_endpoint_at_low_digits(self, capsys, digits):
        # the last sample sits within 2^-200 of the tangent endpoint b,
        # beyond what 15 or 60 digits separate
        assert main(["explore", "--grid", "2", "--digits", digits]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        assert rows[2].startswith("0.135045378368863")
        assert "94.5904252889523451" in rows[2]


class TestRoots:
    @pytest.fixture()
    def minpoly_file(self, tmp_path):
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(_poly_to_json(golden.minpoly("T"))))
        return str(path)

    def test_isolates_and_refines(self, minpoly_file, capsys):
        assert main(["roots", minpoly_file, "--refine", "1e-16"]) == 0
        out = capsys.readouterr().out
        assert "6 real root(s)" in out
        assert "0.120725337054926" in out

    @pytest.mark.parametrize("width", ["0", "-1", "abc", "1/0"])
    def test_bad_refine_width(self, tmp_path, capsys, width):
        path = tmp_path / "x2.json"
        path.write_text(json.dumps(
            {"var": "x", "ring": "Z", "coeffs": ["-2", "0", "1"]}))
        with pytest.raises(SystemExit) as err:
            main(["roots", str(path), "--refine", width])
        assert err.value.code == 2
        assert "--refine" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["roots", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize("blob", [
        {"var": "x", "ring": "Z", "coeffs": 7},
        [1, 2],
    ])
    def test_malformed_file(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert main(["roots", str(path)]) == 2
        assert "cannot read polynomial" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", [["5"], []])
    def test_constant(self, tmp_path, capsys, coeffs):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"var": "x", "ring": "Z",
                                    "coeffs": coeffs}))
        assert main(["roots", str(path)]) == 2
        assert "degree at least 1" in capsys.readouterr().err

    def test_wrong_ring(self, tmp_path, capsys):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(
            {"var": "T", "ring": "Zsqrt3",
             "coeffs": [["-3", "0"], ["0", "0"], ["1", "0"]]}))
        assert main(["roots", str(path)]) == 2


class TestRender:
    def test_writes_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--frame", "K", "--digits", "5",
                     "--out", str(a)]) == 0
        assert main(["render", "--frame", "K", "--digits", "5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"<?xml")

    @pytest.mark.parametrize("places", ["200", "5000"])
    def test_uncertified_places_refused(self, tmp_path, capsys, places):
        # the enclosures at the default precision certify about 37 places
        out = tmp_path / "f.svg"
        assert main(["render", "--digits", places, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()


class TestPipelineCommands:
    def test_derive_single_stage(self, pipeline, capsys):
        assert main(["derive", "--stage", "5",
                     "--cache", str(pipeline.cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "match" in out and "MISMATCH" not in out

    def test_derive_dump(self, pipeline, tmp_path, capsys):
        out = tmp_path / "derived.json"
        assert main(["derive", "--cache", str(pipeline.cache_dir),
                     "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["T"] == _poly_to_json(golden.minpoly("T"))

    def test_certify_report(self, pipeline, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["certify", "--cache", str(pipeline.cache_dir),
                     "--report", str(path)]) == 0
        blob = json.loads(path.read_text())
        assert blob["all_checks_passed"] is True
        assert capsys.readouterr().err.strip().endswith("PASS")
