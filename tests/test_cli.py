"""Command-line behavior: exit codes, output shapes, safety."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import i2gatp
from conftest import (
    COLLINEAR_DSL,
    MULTI_BYTE_ENCODINGS,
    VARIGNON_DSL,
    corrupt_intergeo,
    declaring,
    generated_container,
    with_entry,
)
from i2gatp.cli import main
from i2gatp.container import pack
from i2gatp.dsl import parse_dsl, predicate_text
from i2gatp.numeric import check_conjecture


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
    capsys.readouterr()
    monkeypatch.setenv("I2GATP_EPS", "abc")  # not a number
    assert main(["check", str(varignon_zip), "--trials", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_check_nonpositive_trials_is_usage_error(varignon_zip, capsys):
    for trials in ("0", "-3"):
        assert main(["check", str(varignon_zip), "--trials", trials]) == 3
        assert capsys.readouterr().err == f"usage error: trials must be > 0, got {trials}\n"


def test_usage_errors_exit_3(capsys):
    assert main(["convert", "x", "--from", "dsl", "--to", "nonsense", "--out", "y"]) == 3
    assert main(["frobnicate"]) == 3


def test_malformed_archive_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.zip"
    bad.write_bytes(b"PK\x03\x04 but not really a zip")
    assert main(["validate", str(bad)]) == 1  # reported as violation list
    capsys.readouterr()
    assert main(["info", str(bad)]) == 2


def test_corrupt_entry_is_a_violation(tmp_path, capsys):
    bad = tmp_path / "corrupt.zip"
    bad.write_bytes(corrupt_intergeo(generated_container()))
    assert main(["validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("MalformedZip / ") and "construction/intergeo.xml" in out and err == ""


@pytest.mark.parametrize("encoding", MULTI_BYTE_ENCODINGS)
def test_multi_byte_encoding_declaration_is_a_violation(varignon_zip, tmp_path, capsys, encoding):
    data = varignon_zip.read_bytes()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = declaring(encoding, zf.read("information/information.xml"))
    path = tmp_path / "encoded.zip"
    path.write_bytes(with_entry(data, "information/information.xml", info))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith("MalformedXml information/information.xml/ ")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: MalformedXml at /: ")


@pytest.mark.parametrize("command", [["convert", "--from", "dsl", "--to", "i2gatp", "--out", "-"], ["check"]])
def test_dsl_number_that_overflows_is_located(tmp_path, capsys, command):
    source = tmp_path / "overflow.gcl"
    source.write_text("point A 0 0\npoint B 1 0\ncircle k A B\noncircle X k 1e999\nprove { conclude not_equal A X }\n")
    assert main([command[0], str(source), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 4: number '1e999' is not finite\n"


@pytest.mark.parametrize(
    "source,message",
    [
        ("point A 0 0\nprove { conclude equal " + "plus " * 4999 + "const 1" + " const 1" * 4999 + " const 1 }\n",
         "line 2: term nested deeper than 100 levels"),
        ("point A 1e300 0\npoint B -1e300 1e300\nline l A B\n",
         "line 3: step 'l' is degenerate: coordinates are not finite"),
    ],
    ids=["deep term", "overflowing instance"],
)
def test_dsl_beyond_the_numeric_range_is_located(tmp_path, capsys, source, message):
    path = tmp_path / "hostile.gcl"
    path.write_text(source)
    assert main(["convert", str(path), "--from", "dsl", "--to", "i2gatp", "--out", "-"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unexpected_error_exits_2_in_one_line(varignon_zip, monkeypatch, capsys):
    def boom(data, i2g=False):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("i2gatp.cli.validate_container", boom)
    assert main(["validate", str(varignon_zip)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deep_conjecture_term_is_one_violation(varignon_zip, tmp_path, capsys):
    term = "<plus>" * 5000 + '<const value="1"/>' + '<const value="1"/></plus>' * 5000
    deep = (
        f'<conjecture><conclusion><equal>{term}<const value="1"/></equal>'
        "<not_equal>A B</not_equal></conclusion></conjecture>"
    )
    path = tmp_path / "deep.zip"
    path.write_bytes(with_entry(varignon_zip.read_bytes(), "conjecture/conjecture.xml", deep.encode()))
    assert main(["validate", str(path)]) == 1
    path = "conjecture/conjecture.xml/conjecture/conclusion/equal[0]" + "/plus" * 101
    assert capsys.readouterr().out == f"ArityError {path} term nested deeper than 100 levels\n"


@pytest.mark.parametrize("command", [["convert", "--from", "dsl", "--to", "i2gatp", "--out", "-"], ["check"]])
def test_dsl_that_is_not_utf8_is_located(tmp_path, capsys, command):
    source = tmp_path / "latin1.gcl"
    source.write_bytes("point A 0 0\npoint B 1 0\n% caf\u00e9\nprove { conclude not_equal A B }\n".encode("latin-1"))
    assert main([command[0], str(source), *command[1:]]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8: invalid continuation byte at byte 0xe9\n"


def test_unpack_rejects_traversal_before_writing(tmp_path, capsys):
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


def test_importing_the_cli_leaves_numpy_out():
    # importing numpy alone raises the peak RSS of a check by about 13 MB
    # (17.4 to 30.3 MB maxrss), beyond the benchmark's 10% bound
    env = dict(os.environ, PYTHONPATH=str(Path(i2gatp.__file__).resolve().parent.parent))
    code = "import sys, i2gatp, i2gatp.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "numpy was imported"


def test_loading_the_fixture_module_leaves_pytest_out():
    # bench/workloads.py loads tests/conftest.py by path for its corpus;
    # importing pytest there raised the benchmark's set-up time and peak RSS
    env = dict(os.environ, PYTHONPATH=str(Path(i2gatp.__file__).resolve().parent.parent))
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('fixture_corpus', {str(Path(__file__).parent / 'conftest.py')!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "assert len(module.build_corpus()) == 13 and module.VARIGNON_DSL and module.with_entry\n"
        "sys.exit(sorted({'pytest', 'hypothesis'} & set(sys.modules)) or None)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["validate", "pack"])
def test_unsafe_path_in_a_tree_is_bad_path(tmp_path, varignon_zip, capsys, command):
    # a tree is checked only by validate_entries: no zip reader sees its paths
    tree = tmp_path / "tree"
    assert main(["unpack", str(varignon_zip), "--out", str(tree)]) == 0
    (tree / "construction" / "a\\b").write_bytes(b"x")
    capsys.readouterr()
    assert main([command, str(tree)]) == 1
    assert capsys.readouterr().out == "BadPath construction/a\\b unsafe entry path 'construction/a\\\\b'\n"


@pytest.mark.parametrize("command, options", [("validate", []), ("pack", ["--name", "x"])])
def test_name_with_no_utf8_form_in_a_tree_is_bad_path(tmp_path, varignon_zip, capsys, command, options):
    # pack exited 2 with an unexpected UnicodeEncodeError after validate passed
    tree = tmp_path / "tree"
    assert main(["unpack", str(varignon_zip), "--out", str(tree)]) == 0
    (tree / "resources").mkdir()
    with open(os.fsencode(tree / "resources") + b"/\xff.txt", "wb") as f:
        f.write(b"x")
    capsys.readouterr()
    assert main([command, str(tree), *options]) == 1
    assert capsys.readouterr().out == "BadPath resources/\\udcff.txt unsafe entry path 'resources/\\udcff.txt'\n"


@pytest.mark.parametrize(
    "command",
    [
        ["info"],
        ["convert", "--from", "i2gatp", "--to", "dsl", "--out", "-"],
        ["convert", "--from", "i2gatp", "--to", "proverinput", "--out", "-"],
        ["check"],
    ],
    ids=["info", "dsl", "proverinput", "check"],
)
def test_unresolved_conjecture_id_is_refused_by_every_reader(varignon_zip, tmp_path, capsys, command):
    # validate reported it, while info and convert exited 0 and convert
    # wrote a DSL source that parse_dsl refuses
    data = varignon_zip.read_bytes()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        conjecture = zf.read("conjecture/conjecture.xml").replace(b"P Q S R", b"P Q S ZZ")
    path = tmp_path / "unresolved.zip"
    path.write_bytes(with_entry(data, "conjecture/conjecture.xml", conjecture))
    assert main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: UnresolvedId at /conjecture/conclusion/parallel[0]: id 'ZZ' does not resolve in the construction\n"


def test_python_dash_m_runs_the_cli(varignon_zip):
    env = dict(os.environ, PYTHONPATH=str(Path(i2gatp.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "i2gatp", "validate", str(varignon_zip)], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_pack_of_a_file_exits_2(varignon_zip, capsys):
    assert main(["pack", str(varignon_zip)]) == 2
    assert capsys.readouterr().err == f"error: {varignon_zip} is not a directory\n"


def test_pack_of_a_tree_with_no_name_exits_2(tmp_path, corpus, capsys, monkeypatch):
    # the name only names the output file: --out packs a tree with no
    # information.xml, and only a pack with neither --out nor --name exits 2
    archive = tmp_path / "minimal.zip"
    archive.write_bytes(pack(corpus["minimal"]))
    tree = tmp_path / "tree"
    assert main(["unpack", str(archive), "--out", str(tree)]) == 0
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    assert main(["pack", str(tree)]) == 2
    assert capsys.readouterr().err == "error: input has no information.xml; pass --name or --out\n"
    assert list(work.iterdir()) == []
    assert main(["pack", str(tree), "--out", str(tmp_path / "out.zip")]) == 0
    assert (tmp_path / "out.zip").read_bytes() == archive.read_bytes()
    assert main(["pack", str(tree), "--name", "minimal"]) == 0
    assert (work / "problemminimal.zip").read_bytes() == archive.read_bytes()
    assert capsys.readouterr().out == f"{tmp_path / 'out.zip'}\nproblemminimal.zip\n"
    # a name given with --out is still checked
    assert main(["pack", str(tree), "--name", "has space", "--out", str(tmp_path / "named.zip")]) == 3
    assert capsys.readouterr() == ("", "usage error: invalid problem name 'has space'\n")
    assert not (tmp_path / "named.zip").exists()


@pytest.mark.parametrize("name", ["", "has space", "x/../../evil"])
def test_pack_refuses_a_name_that_is_not_a_problem_name(tmp_path, varignon_zip, capsys, monkeypatch, name):
    # --name went into the filename unchecked: "" wrote problem.zip, and
    # "x/../../evil" wrote outside the working directory once problemx/ existed
    tree = tmp_path / "tree"
    assert main(["unpack", str(varignon_zip), "--out", str(tree)]) == 0
    work = tmp_path / "work"
    (work / "problemx").mkdir(parents=True)
    monkeypatch.chdir(work)
    capsys.readouterr()
    assert main(["pack", str(tree), "--name", name]) == 3
    assert capsys.readouterr() == ("", f"usage error: invalid problem name {name!r}\n")
    assert [p.name for p in work.iterdir()] == ["problemx"] and not (tmp_path / "evil.zip").exists()


def test_unpack_does_not_follow_a_symlink_out_of_the_output_dir(varignon_zip, tmp_path, capsys):
    # the reader refuses unsafe names, but a link already in the output
    # directory can still lead an entry out of it
    outside = tmp_path / "outside"
    outside.mkdir()
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "construction").symlink_to(outside, target_is_directory=True)
    assert main(["unpack", str(varignon_zip), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: entry 'construction/' escapes the output directory\n"
    assert list(outside.iterdir()) == []
    # every target is checked first: no entry before the refused one, such
    # as conjecture/, was written
    assert list(outdir.iterdir()) == [outdir / "construction"]


@pytest.mark.parametrize("target", ["file", "directory"])
@pytest.mark.parametrize("command", ["pack", "validate"])
def test_a_symbolic_link_in_the_tree_exits_2(varignon_zip, tmp_path, capsys, command, target):
    # a link could lead a read out of the tree: pack wrote the bytes of the
    # file it named into the archive
    tree = tmp_path / "in"
    assert main(["unpack", str(varignon_zip), "--out", str(tree)]) == 0
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "notes.txt").write_text("not part of the problem")
    (tree / "resources").mkdir(exist_ok=True)
    link = tree / "resources" / "notes.txt"
    link.symlink_to(outside / "notes.txt" if target == "file" else outside, target_is_directory=target == "directory")
    capsys.readouterr()
    argv = ["pack", str(tree), "--out", str(tmp_path / "out.zip")] if command == "pack" else ["validate", str(tree)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {link} is a symbolic link\n")
    assert not (tmp_path / "out.zip").exists()


def test_info_without_conjecture_or_proofs(tmp_path, corpus, capsys):
    path = tmp_path / "minimal.zip"
    path.write_bytes(pack(corpus["minimal"]))
    assert main(["info", str(path)]) == 0
    assert capsys.readouterr().out == (
        "name: (unnamed)\n"
        "elements: 1 (1 points, 0 lines, 0 circles)\n"
        "constraints: 1 (1 free, 0 opaque)\n"
        "conjecture: none\n"
        "proofs: none\n"
    )


def test_check_json_witness_of_schema_1(tmp_path, capsys):
    # pinned before the schema gains keys: a falsified check exits 4 and its
    # witness maps each free id to [x, y] and names the failing predicate
    gcl = tmp_path / "collinear.gcl"
    gcl.write_text(COLLINEAR_DSL)
    assert main(["check", str(gcl), "--trials", "50", "--seed", "1", "--json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    problem = parse_dsl(COLLINEAR_DSL)
    report = check_conjecture(problem, 50, seed=1)
    assert payload["schema_version"] == 1 and payload["verdict"] == "falsified"
    assert sorted(payload["witness"]) == ["assignment", "predicate"]
    assert payload["witness"]["assignment"] == {fid: [x, y] for fid, (x, y) in report.witness.assignment}
    assert sorted(payload["witness"]["assignment"]) == sorted(problem.construction.free_point_ids()) == ["A", "B", "C"]
    assert payload["witness"]["predicate"] == predicate_text(report.witness.predicate) == "collinear A B C"
