import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from harborth import golden
from harborth.errors import StageDependencyMissing
from harborth.pipeline import (STAGE_OUTPUTS, Pipeline, _any_from_json,
                               _any_to_json)

COMMITTED_CACHE = Path(__file__).resolve().parent.parent / ".harborth-cache"


class TestRecords:
    def test_every_record_matches_reference(self, pipeline):
        for stage, recs in pipeline.records.items():
            for r in recs:
                assert r.matches_reference, (stage, r.name)

    def test_all_stage_outputs_present(self, pipeline):
        for stage, names in STAGE_OUTPUTS.items():
            for name in names:
                assert name in pipeline.results, (stage, name)

    def test_minpolys_equal_reference_tables(self, pipeline):
        for key in golden.MINPOLY_KEYS:
            assert pipeline.results[key].to_json_dict() == \
                golden.minpoly(key).to_json_dict(), key

    def test_json_round_trip(self, pipeline):
        for recs in pipeline.records.values():
            for r in recs:
                blob = _any_to_json(r.poly)
                again = _any_to_json(_any_from_json(blob))
                assert blob == again, r.name
                # serialized form survives an actual JSON encode/decode
                assert json.loads(json.dumps(blob)) == blob


class TestAccounting:
    def test_eliminant_degree(self, pipeline):
        assert pipeline.accounting["full_degree"] == 156

    def test_factor_multiplicities(self, pipeline):
        factors = pipeline.accounting["factors"]
        assert factors["2T + sqrt(3)"] == 1
        assert factors["2T - sqrt(3)"] == 1
        assert factors["64T^4 - 24T^2 + 9"] == 6
        assert factors["parameter minimal polynomial"] == 1

    def test_cofactor_degree(self, pipeline):
        assert pipeline.accounting["cofactor_degree"] == 108


class TestCache:
    def test_cache_round_trip(self, pipeline):
        fresh = Pipeline(cache_dir=pipeline.cache_dir)
        recs = fresh.run_stage(5)
        by_name = {r.name: r for r in pipeline.records[5]}
        for r in recs:
            assert r.poly == by_name[r.name].poly
            assert r.matches_reference == by_name[r.name].matches_reference

    @pytest.mark.parametrize("stage, name", [(7, "x_A"), (4, "X~T"),
                                             (5, "degree-156 eliminant")])
    def test_tampered_record_rechecked(self, pipeline, tmp_path, stage,
                                       name):
        blob = json.loads(
            (pipeline.cache_dir / ("stage%d.json" % stage)).read_text())
        poly = next(r for r in blob["records"] if r["name"] == name)["poly"]
        if poly["kind"] == "poly" and name in golden.MINPOLY_KEYS:
            poly["coeffs"][0] = str(int(poly["coeffs"][0]) + 1)
        elif poly["kind"] == "poly":
            poly["coeffs"].append(poly["coeffs"][-1])  # one degree more
        else:
            a, b = poly["terms"][0][1]
            poly["terms"][0][1] = [str(int(a) + 1), b]
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / ("stage%d.json" % stage)).write_text(json.dumps(blob))
        recs = Pipeline(cache_dir=cache).run_stage(stage)
        verdicts = {r.name: r.matches_reference for r in recs}
        assert verdicts.pop(name) is False
        assert all(verdicts.values())

    def test_tampered_accounting_fails_certify(self, pipeline, tmp_path):
        for n in range(1, 8):
            name = "stage%d.json" % n
            (tmp_path / name).write_text(
                (pipeline.cache_dir / name).read_text())
        blob = json.loads((tmp_path / "stage5.json").read_text())
        blob["accounting"]["factors"]["64T^4 - 24T^2 + 9"] = 5
        (tmp_path / "stage5.json").write_text(json.dumps(blob))
        report = Pipeline(cache_dir=tmp_path).certify()
        assert report.payload["degree156"]["factors"][
            "64T^4 - 24T^2 + 9"] == 5
        assert report.payload["all_checks_passed"] is False

    @pytest.mark.parametrize("damage", [
        lambda b: b.pop("records"),
        lambda b: b["records"][0].pop("poly"),
        lambda b: b["records"][0].update(poly=None),
        lambda b: b["records"][0]["poly"].update(coeffs=7),
        lambda b: b["records"][0].update(name="not a table"),
        lambda b: b.update(records=[3]),
    ])
    def test_malformed_stage_is_a_miss(self, pipeline, tmp_path, damage):
        blob = json.loads((pipeline.cache_dir / "stage7.json").read_text())
        damage(blob)
        (tmp_path / "stage7.json").write_text(json.dumps(blob))
        fresh = Pipeline(cache_dir=tmp_path)
        assert fresh._load_stage(7) is False
        assert fresh.results == {} and fresh.records == {}

    def test_malformed_stage_is_derived_again(self, pipeline, tmp_path):
        good = (pipeline.cache_dir / "stage1.json").read_text()
        (tmp_path / "stage1.json").write_text('{"stage": 1}\n')
        recs = Pipeline(cache_dir=tmp_path).run_stage(1)
        assert all(r.matches_reference for r in recs)
        assert (tmp_path / "stage1.json").read_text() == good

    def test_failed_save_keeps_old_stage(self, pipeline, tmp_path,
                                         monkeypatch):
        old = (pipeline.cache_dir / "stage1.json").read_bytes()
        (tmp_path / "stage1.json").write_bytes(old)
        fresh = Pipeline(cache_dir=tmp_path)
        recs = [replace(r, note="rewritten") for r in pipeline.records[1]]

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            fresh._save_stage(1, recs)
        assert (tmp_path / "stage1.json").read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["stage1.json"]

    def test_missing_dependency(self, tmp_path):
        empty = Pipeline(cache_dir=tmp_path / "nothing")
        with pytest.raises(StageDependencyMissing):
            empty.run_stage(4)

    def test_bad_stage_number(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.run_stage(8)


class TestDerivation:
    def test_bivariate_stages_rederive_byte_identical(self, tmp_path):
        # stages 1-4: Groebner eliminants, resultants, squarefree parts and
        # bivariate factor selection, derived from nothing
        fresh = Pipeline(cache_dir=tmp_path)
        for n in range(1, 5):
            fresh.run_stage(n, use_cache=False)
            name = "stage%d.json" % n
            assert (tmp_path / name).read_bytes() == \
                (COMMITTED_CACHE / name).read_bytes(), name


class TestCertification:
    def test_overall_pass(self, report):
        assert report.ok
        assert report.payload["all_checks_passed"] is True

    def test_solved_height(self, report):
        assert report.payload["solved_height"].startswith("0.120725337054926")

    def test_tables_cover_minpolys(self, report):
        tables = report.payload["tables"]
        for key in golden.MINPOLY_KEYS:
            assert tables[key]["matches_reference"], key
            assert "polynomial" in tables[key]

    def test_unit_distance_block(self, report):
        unit = report.payload["unit_distance"]
        assert len(unit) == 14
        for label, entry in unit.items():
            assert entry["verdict"] == "proved-zero", label

    def test_canonical_bytes_parse(self, report):
        blob = json.loads(report.canonical_bytes())
        assert blob["all_checks_passed"] is True
