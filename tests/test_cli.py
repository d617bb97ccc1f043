"""Command-line behavior: exit codes, output shapes, safety."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import COLLINEAR_DSL, VARIGNON_DSL
from i2gatp.cli import main
from i2gatp.container import pack


@pytest.fixture()
def varignon_zip(tmp_path, corpus) -> Path:
    path = tmp_path / "problemvarignon.zip"
    path.write_bytes(pack(corpus["varignon"]))
    return path


def test_validate_pristine_fixture_is_silent(varignon_zip, capsys):
    assert main(["validate", str(varignon_zip)]) == 0
    assert capsys.readouterr().out == ""


def test_unpack_then_pack_round_trips(varignon_zip, tmp_path, capsys):
    outdir = tmp_path / "tree"
    assert main(["unpack", str(varignon_zip), "--out", str(outdir)]) == 0
    assert (outdir / "construction" / "intergeo.xml").is_file()
    repacked = tmp_path / "repacked.zip"
    assert main(["pack", str(outdir), "--out", str(repacked)]) == 0
    assert repacked.read_bytes() == varignon_zip.read_bytes()
    assert str(repacked) in capsys.readouterr().out


def test_pack_missing_intergeo_exits_1(tmp_path, capsys):
    (tmp_path / "information").mkdir()
    code = main(["pack", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "MissingIntergeo" in out


def test_pack_unwritable_out_exits_2(tmp_path, corpus, varignon_zip, capsys):
    outdir = tmp_path / "tree"
    main(["unpack", str(varignon_zip), "--out", str(outdir)])
    code = main(["pack", str(outdir), "--out", str(tmp_path / "no" / "such" / "dir" / "x.zip")])
    assert code == 2


def test_strip_then_i2g_validate(varignon_zip, tmp_path, capsys):
    stripped = tmp_path / "i2g.zip"
    assert main(["strip", str(varignon_zip), "--out", str(stripped)]) == 0
    assert main(["validate", str(stripped)]) == 1  # i2gatp layout no longer applies
    capsys.readouterr()
    assert main(["validate", "--i2g", str(stripped)]) == 0
    assert capsys.readouterr().out == ""


def test_info_prints_attempt_table(tmp_path, corpus, capsys):
    path = tmp_path / "attempts.zip"
    path.write_bytes(pack(corpus["varignon_attempts"]))
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "name: varignon_attempts" in out
    assert "elements: 12 (8 points, 4 lines, 0 circles)" in out
    assert "GCLCprover 2.0 wu timeout" in out
    assert "CoqAM 8.16 areamethod gaveup" in out


def test_convert_hub_routes(tmp_path, corpus, capsys):
    gcl = tmp_path / "varignon.gcl"
    gcl.write_text(VARIGNON_DSL)
    archive = tmp_path / "out.zip"
    assert main(["convert", str(gcl), "--from", "dsl", "--to", "i2gatp", "--out", str(archive)]) == 0
    assert archive.read_bytes() == pack(corpus["varignon"])

    back = tmp_path / "back.gcl"
    assert main(["convert", str(archive), "--from", "i2gatp", "--to", "dsl", "--out", str(back)]) == 0
    twice = tmp_path / "twice.gcl"
    assert main(["convert", str(back), "--from", "dsl", "--to", "dsl", "--out", str(twice)]) == 0
    assert back.read_text() == twice.read_text()

    gpi = tmp_path / "varignon.gpi"
    assert main(["convert", str(archive), "--from", "i2gatp", "--to", "proverinput", "--out", str(gpi)]) == 0
    assert gpi.read_text().startswith("gpi 1\n")


def test_check_consistent_exit_0(varignon_zip, capsys):
    assert main(["check", str(varignon_zip), "--trials", "200", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "not a proof" in out
    assert "verdict: consistent_over_samples" in out


def test_check_falsified_exit_4(tmp_path, capsys):
    gcl = tmp_path / "collinear.gcl"
    gcl.write_text(COLLINEAR_DSL)
    assert main(["check", str(gcl), "--trials", "50", "--seed", "1"]) == 4
    out = capsys.readouterr().out
    assert "verdict: falsified" in out
    assert "collinear A B C" in out
    assert "A = (" in out


def test_check_json_schema(varignon_zip, capsys):
    assert main(["check", str(varignon_zip), "--trials", "50", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "consistent_over_samples"
    assert payload["witness"] is None
    assert payload["samples_total"] == 50


def test_check_without_conjecture_exit_2(tmp_path, corpus, capsys):
    path = tmp_path / "minimal.zip"
    path.write_bytes(pack(corpus["minimal"]))
    assert main(["check", str(path)]) == 2


def test_check_eps_env_override(varignon_zip, monkeypatch, capsys):
    monkeypatch.setenv("I2GATP_EPS", "1e-6")
    assert main(["check", str(varignon_zip), "--trials", "10"]) == 0
    monkeypatch.setenv("I2GATP_EPS", "5.0")  # outside (0, 1e-2]
    assert main(["check", str(varignon_zip), "--trials", "10"]) == 3


def test_usage_errors_exit_3(capsys):
    assert main(["convert", "x", "--from", "dsl", "--to", "nonsense", "--out", "y"]) == 3
    assert main(["frobnicate"]) == 3


def test_malformed_archive_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.zip"
    bad.write_bytes(b"PK\x03\x04 but not really a zip")
    assert main(["validate", str(bad)]) == 1  # reported as violation list
    capsys.readouterr()
    assert main(["info", str(bad)]) == 2


def test_unexpected_error_exits_2_in_one_line(varignon_zip, tmp_path, capsys):
    import io
    import zipfile

    term = "<plus>" * 5000 + '<const value="1"/>' + '<const value="1"/></plus>' * 5000
    deep = f'<conjecture><conclusion><equal>{term}<const value="1"/></equal></conclusion></conjecture>'
    buf = io.BytesIO()
    with zipfile.ZipFile(varignon_zip) as src, zipfile.ZipFile(buf, "w") as zf:
        for info in src.infolist():
            data = deep.encode() if info.filename == "conjecture/conjecture.xml" else src.read(info)
            zf.writestr(info, data)
    path = tmp_path / "deep.zip"
    path.write_bytes(buf.getvalue())
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unpack_rejects_traversal_before_writing(tmp_path, capsys):
    import io
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("../evil", b"boom")
        zf.writestr("construction/intergeo.xml", b"<construction><elements/></construction>")
    bad = tmp_path / "traversal.zip"
    bad.write_bytes(buf.getvalue())
    outdir = tmp_path / "out"
    assert main(["unpack", str(bad), "--out", str(outdir)]) == 2
    assert not (tmp_path / "evil").exists()
    assert not outdir.exists() or not any(outdir.iterdir())


def test_stdout_convention(tmp_path, capsys, corpus):
    gcl = tmp_path / "v.gcl"
    gcl.write_text(VARIGNON_DSL)
    assert main(["convert", str(gcl), "--from", "dsl", "--to", "dsl", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("% name: varignon")
