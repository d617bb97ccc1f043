"""Container packing, unpacking, i2g extraction and manifest validation."""

from __future__ import annotations

import bz2
import dataclasses
import hashlib
import io
import lzma
import random
import re
import struct
import tracemalloc
import warnings
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2gatp import container
from i2gatp.cli import main
from i2gatp.container import (
    _write_zip,
    add_proof_attempt,
    canonicalize_container,
    entries_from_problem,
    pack,
    problem_from_entries,
    read_container_entries,
    strip_to_i2g,
    suggested_filename,
    unpack,
    validate_container,
    validate_entries,
)
from i2gatp.dsl import parse_dsl
from i2gatp.errors import ContainerError, I2gatpError
from i2gatp.model import (
    Collinear,
    Conjecture,
    ProofAttempt,
    ProofStatus,
    Violation,
    canonicalize_problem,
    validate_problem,
)
from i2gatp.xml_codec import serialize_proof_info

from conftest import MINIMAL_DSL, bench_workloads, corrupt_intergeo, generated_container
from oracles import read_zip_reference, write_zip_reference

# When a property test fails, hypothesis's pytest plugin imports its patch
# writer, whose libcst import warns; under filterwarnings = error that turns
# the failure into an INTERNALERROR which ends the session.  Imported here
# once, with the warning ignored, a failing property is reported as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def _names(data: bytes) -> list[str]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return zf.namelist()


def _read(data: bytes, name: str) -> bytes:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return zf.read(name)


def _rezip(entries: list[tuple[str, bytes | None]]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries:
            zf.writestr(name, data if data is not None else b"")
    return buf.getvalue()


def test_construction_only_layout(corpus):
    data = pack(corpus["minimal"])
    names = _names(data)
    assert names == [
        "conjecture/",
        "construction/",
        "construction/intergeo.xml",
        "information/",
        "proofs/",
    ]


def test_attempt_directory_naming(corpus):
    data = pack(corpus["varignon_attempts"])
    names = _names(data)
    assert "proofs/proofGCLCprover2.0areamethod/proofInfo.xml" in names
    assert "proofs/proofGCLCprover2.0areamethod/proofOutput.txt" in names
    assert "proofs/proofGCLCprover2.0wu/proofInfo.xml" in names
    assert "proofs/proofCoqAM8.16areamethod/proofInfo.xml" in names


def test_pack_is_deterministic(corpus):
    for name, problem in corpus.items():
        assert pack(problem) == pack(problem), name


def test_pack_rejects_invalid_problem(varignon):
    broken = dataclasses.replace(varignon, conjecture=Conjecture((), (), (Collinear("A", "B", "X"),)))
    with pytest.raises(ContainerError) as exc:
        pack(broken)
    assert exc.value.code == "InvalidProblem"
    assert any(v.code == "UnresolvedId" for v in exc.value.violations)


def test_unpack_inverts_pack(corpus):
    for name, problem in corpus.items():
        recovered = unpack(pack(problem))
        assert recovered == canonicalize_problem(problem), name
        assert validate_problem(recovered) == [], name


def test_pack_unpack_pack_fixed_point(corpus_containers):
    for name, data in corpus_containers.items():
        assert canonicalize_container(data) == data, name


def test_unpack_requires_intergeo():
    data = _rezip([("information/", None), ("information/information.xml", b"<information><name>x</name></information>")])
    with pytest.raises(ContainerError) as exc:
        unpack(data)
    assert exc.value.code == "MissingIntergeo"


def test_unpack_rejects_traversal():
    data = _rezip([("../evil", b"boom"), ("construction/intergeo.xml", b"<construction/>")])
    with pytest.raises(ContainerError) as exc:
        unpack(data)
    assert exc.value.code == "BadPath"


def test_unpack_rejects_garbage():
    with pytest.raises(ContainerError) as exc:
        unpack(b"this is not a zip archive")
    assert exc.value.code == "MalformedZip"


def test_corrupt_entry_is_malformed_zip():
    data = corrupt_intergeo(generated_container())
    [violation] = validate_container(data)
    assert violation.code == "MalformedZip" and "'construction/intergeo.xml'" in violation.message
    with pytest.raises(ContainerError) as exc:
        unpack(data)
    assert exc.value.code == "MalformedZip"


def test_mutated_bytes_raise_only_library_errors():
    data = generated_container()
    rng = random.Random(0)
    for _ in range(300):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        mutated = bytes(mutated)
        assert isinstance(validate_container(mutated), list)
        try:
            unpack(mutated)
        except I2gatpError:
            pass


def test_unknown_section_files_are_carried(corpus):
    data = pack(corpus["varignon_files"])
    p = unpack(data)
    paths = [path for path, _ in p.resources]
    assert "construction/preview.svg" in paths
    assert "resources/diagram.png" in paths
    assert p.metadata == (("metadata/i2g-lom.xml", b"<lom><title>varignon</title></lom>"),)
    assert p.private == (("private/example.org/notes.txt", b"internal notes\n"),)
    assert pack(p) == data


def test_strip_removes_exactly_the_extension_dirs(corpus_containers):
    for name, data in corpus_containers.items():
        stripped = strip_to_i2g(data)
        names = _names(stripped)
        assert not any(n.startswith(("information/", "conjecture/", "proofs/")) for n in names), name
        assert _read(stripped, "intergeo.xml") == _read(data, "construction/intergeo.xml"), name
        assert strip_to_i2g(stripped) == stripped, name


def test_strip_keeps_resources(corpus):
    data = pack(corpus["varignon_files"])
    stripped = strip_to_i2g(data)
    names = _names(stripped)
    assert "preview.svg" in names  # construction/ content relocated to the root
    assert "resources/diagram.png" in names
    assert "metadata/i2g-lom.xml" in names
    assert "private/example.org/notes.txt" in names


def test_add_proof_attempt_round_trip(corpus):
    data = pack(corpus["varignon"])
    attempt = ProofAttempt(
        prover="GCLCprover",
        version="2.0",
        method="areamethod",
        status=ProofStatus.TIMEOUT,
        outputs=(("log.txt", b"gave it 600 seconds\n"),),
    )
    updated = add_proof_attempt(data, attempt)
    before = {n for n in _names(data)}
    after = {n for n in _names(updated)}
    assert after - before == {
        "proofs/proofGCLCprover2.0areamethod/",
        "proofs/proofGCLCprover2.0areamethod/proofInfo.xml",
        "proofs/proofGCLCprover2.0areamethod/log.txt",
    }
    for name in before:
        if not name.endswith("/"):
            assert _read(updated, name) == _read(data, name)
    p = unpack(updated)
    assert len(p.proofs) == 1
    with pytest.raises(ContainerError) as exc:
        add_proof_attempt(updated, attempt)
    assert exc.value.code == "DuplicateAttempt"


def test_add_proof_attempt_rejects_invalid_attempt(corpus):
    # a name that cannot compose a directory name is refused before writing
    attempt = ProofAttempt("GCLC prover", "2.0", "areamethod", ProofStatus.PROVED)
    with pytest.raises(ContainerError) as exc:
        add_proof_attempt(pack(corpus["varignon"]), attempt)
    assert exc.value.code == "InvalidProblem"
    assert [(v.code, v.path) for v in exc.value.violations] == [("BadName", "/proof_info/prover")]


def test_add_proof_attempt_writes_missing_parent_dirs(corpus):
    data = pack(corpus["varignon"])
    files_only = _rezip([(n, _read(data, n)) for n in _names(data) if not n.endswith("/")])
    attempt = ProofAttempt("GCLCprover", "2.0", "areamethod", ProofStatus.PROVED, outputs=(("logs/run.txt", b"ok\n"),))
    updated = add_proof_attempt(files_only, attempt)
    assert {
        "construction/",
        "proofs/",
        "proofs/proofGCLCprover2.0areamethod/",
        "proofs/proofGCLCprover2.0areamethod/logs/",
    } <= set(_names(updated))
    assert validate_container(updated) == []


def test_validate_container_clean_corpus(corpus_containers):
    for name, data in corpus_containers.items():
        assert validate_container(data) == [], name


def test_validate_flags_bad_proof_dir_name(corpus):
    data = pack(corpus["varignon"])
    entries = [("proofs/myattempt/notes.txt", b"x")]
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for info in zf.infolist():
            entries.append((info.filename, None if info.is_dir() else zf.read(info)))
    merged = _rezip(entries)
    codes = [v.code for v in validate_container(merged)]
    assert "BadProofDirName" in codes


def test_validate_locates_malformed_documents(corpus):
    data = pack(corpus["varignon"])
    entries = []
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for info in zf.infolist():
            payload = None if info.is_dir() else zf.read(info)
            if info.filename == "information/information.xml":
                payload = b"<information><name>x</information>"
            entries.append((info.filename, payload))
    violations = validate_container(_rezip(entries))
    assert violations and all(v.path.startswith("information/information.xml") for v in violations)
    assert violations[0].code == "MalformedXml"


@pytest.mark.parametrize(
    "extra, code, where",
    [
        (b"<mood>tired</mood>", "UnknownTag", "mood"),
        (b"<measures><proof_steps>-1</proof_steps></measures>", "NegativeMeasure", "measures/proof_steps"),
    ],
    ids=["unknown-tag", "negative-measure"],
)
def test_unknown_tag_in_proof_info_still_checks_its_directory(corpus, extra, code, where):
    data = pack(corpus["varignon_attempts"])
    entries = [(n, None if n.endswith("/") else _read(data, n)) for n in _names(data)]
    wu = _read(data, "proofs/proofGCLCprover2.0wu/proofInfo.xml")
    misplaced = ("proofs/proofOtherdir1.0x/proofInfo.xml", wu.replace(b"</proof_info>", extra + b"</proof_info>"))
    pairs = [(v.code, v.path) for v in validate_container(_rezip([*entries, misplaced]))]
    assert (code, f"proofs/proofOtherdir1.0x/proofInfo.xml/proof_info/{where}") in pairs
    assert ("DirNameMismatch", "proofs/proofOtherdir1.0x/") in pairs
    assert ("DuplicateAttempt", "proofs/proofOtherdir1.0x/proofInfo.xml") in pairs
    assert len(pairs) == len(set(pairs))
    # the misplaced document alone still holds the identity
    others = [e for e in entries if not e[0].startswith("proofs/proofGCLCprover2.0wu/")]
    wu_attempt = next(a for a in corpus["varignon_attempts"].proofs if a.method == "wu")
    with pytest.raises(ContainerError) as exc:
        add_proof_attempt(_rezip([*others, misplaced]), wu_attempt)
    assert exc.value.code == "DuplicateAttempt"


def test_validate_missing_mandatory_dir():
    data = _rezip([("construction/intergeo.xml", b"<construction><elements/></construction>")])
    codes = {v.code for v in validate_container(data)}
    assert "MissingMandatoryDir" in codes


def test_validate_i2g_mode(corpus_containers):
    stripped = strip_to_i2g(corpus_containers["varignon"])
    assert validate_container(stripped, i2g=True) == []
    full = corpus_containers["varignon"]
    codes = {v.code for v in validate_container(full, i2g=True)}
    assert "MissingIntergeo" in codes and "UnexpectedEntry" in codes


def test_suggested_filename(corpus):
    assert suggested_filename(corpus["varignon"]) == "problemvarignon.zip"
    assert suggested_filename(corpus["minimal"], "adhoc") == "problemadhoc.zip"
    with pytest.raises(ValueError):
        suggested_filename(corpus["minimal"])


def test_duplicate_attempt_triple_across_dirs_flagged(corpus):
    data = pack(corpus["varignon_attempts"])
    entries = []
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for info in zf.infolist():
            payload = None if info.is_dir() else zf.read(info)
            entries.append((info.filename, payload))
            if info.filename == "proofs/proofGCLCprover2.0wu/proofInfo.xml":
                entries.append(("proofs/proofOtherdir1.0x/proofInfo.xml", payload))
    codes = [v.code for v in validate_container(_rezip(entries))]
    assert "DuplicateAttempt" in codes and "DirNameMismatch" in codes


@pytest.mark.parametrize("loose", ["intergeo.xml", "a"])
def test_strip_refuses_entries_that_relocate_to_one_path(corpus_containers, tmp_path, loose):
    # the later entry used to win: with a loose root intergeo.xml, the
    # stripped intergeo.xml was that file and not the construction
    entries = read_container_entries(corpus_containers["varignon"])
    entries += [("construction/a", b"inner"), (loose, b"loose")]
    data = _write_zip(entries)
    with pytest.raises(ContainerError) as exc:
        strip_to_i2g(data)
    assert exc.value.code == "DuplicateEntry"
    assert sorted(re.findall("'([^']*)'", str(exc.value))) == sorted([loose, loose, f"construction/{loose}"])
    path = tmp_path / "problem.zip"
    path.write_bytes(data)
    assert main(["strip", str(path), "--out", str(tmp_path / "i2g.zip")]) == 2


def test_nul_in_a_carried_path_is_bad_path(corpus):
    # zipfile cut such a name at the NUL, so with a second path resources/a
    # pack wrote an archive that unpack refused as DuplicateEntry
    p = corpus["varignon_files"]
    p = dataclasses.replace(p, resources=p.resources + (("resources/a", b"1"), ("resources/a\0b.png", b"2")))
    assert [(v.code, v.path) for v in validate_problem(p)] == [("BadPath", "/resources/resources/a\0b.png")]
    with pytest.raises(ContainerError) as exc:
        pack(p)
    assert exc.value.code == "InvalidProblem"
    # an archive from elsewhere is refused too, not read under the cut name
    data = _write_zip(entries_from_problem(corpus["varignon"]) + [("resources/a\0b.png", b"2")])
    assert ("resources/a", b"2") in read_zip_reference(data)
    with pytest.raises(ContainerError) as exc:
        unpack(data)
    assert exc.value.code == "BadPath"
    assert [v.code for v in validate_container(data)] == ["BadPath"]


# ---------------------------------------------------------------------------
# Zip I/O against the zipfile oracles

# sha256 of pack(p) for each corpus problem, as the zipfile writer made them
PACK_SHA256 = {
    "varignon": "15eaacd42ed1b789b49a28c29ebfac161ec01b85d67003e864934ca29c82fa0b",
    "midpoint_thm": "398ae7a722630a402b0d79c4cd437cd2781c32d9b7705bdc1d6619ef20388ca3",
    "collinear_free": "b217a74da83094bfed63af39c85a5963f3d308dac06c41184ade3d7b84a2d02a",
    "harmonic_range": "97f9aa291891ccd0201b5c6631f1cb8091ae60f88dc2ea615422bf8035bf851f",
    "circle_radii": "405d6aff32953cadd23dc08821ac2ab56c79521e284ecfdaf26856586e2f93b2",
    "perpendicular_foot": "22479cbb25681c2133b27e84fb9868bbf752a34d41913708a26f704eb3a1fb26",
    "half_segment": "e9d4ef480f7ca298be0a91c3a486d8a7cf8ac8412f69fb4e2fe7010cf1eee48b",
    "parallel_transport": "18719cd417d8f998463de2b381acee6203dff394df00b97d356e6481f833dc3a",
    "triangle_sides": "b3ba2d01dfcc9152b90bc6f283134dd13fd5657783fdb03aa00c7e11a8476d23",
    "minimal": "6794fa1ba28d7f6dc7e6c12f62e4b441b40556a87db32bb16594262ba8682448",
    "varignon_attempts": "3236da049f90e69f2e173bb3535bbc4bc01708d2843cb03dc77b6459b0d528a3",
    "opaque_circumcircle": "1f595897fb424ae72fa8040559b3cdfec465a2033edfc66d479b30974c00bfbe",
    "varignon_files": "d9b86cff814eea007c275ce09910792221fc2b5e63d7e7435a7ba6afe1d1dee5",
}


def test_pack_digests_are_pinned(corpus_containers):
    assert {name: hashlib.sha256(data).hexdigest() for name, data in corpus_containers.items()} == PACK_SHA256


def _writer_cases(corpus):
    cases = {name: entries_from_problem(p) for name, p in corpus.items()}
    generate_dsl = bench_workloads().generate_dsl
    for n in (10, 100, 1000):
        cases[f"generated_{n}"] = entries_from_problem(parse_dsl(generate_dsl(random.Random(n), n, f"generated_{n}")))
    cases["non_ascii"] = [("resources/résumé.txt", b"caf\xc3\xa9"), ("resources/über/", None)]
    cases["empty_file"] = [("resources/empty", b"")]
    cases["256_and_257_bytes"] = [("resources/a", bytes(range(256))), ("resources/b", bytes(range(256)) + b"!")]
    cases["missing_parents"] = [("x/y/z.txt", b"deep"), ("x/w/", None), ("top.txt", b"loose")]
    return cases


def test_writer_matches_the_zipfile_writer(corpus):
    for name, entries in _writer_cases(corpus).items():
        assert _write_zip(entries) == write_zip_reference(entries), name


@pytest.mark.parametrize("limit", ["ZIP_FILECOUNT_LIMIT", "ZIP64_LIMIT"])
def test_zip64_end_record_matches_the_zipfile_writer(monkeypatch, limit):
    # past 65535 entries, or a central directory past 2 GiB, zipfile adds the
    # zip64 end record; lowered limits show the same bytes on small archives
    entries = [(f"resources/{i:03d}", random.Random(i).randbytes(300)) for i in range(5)]
    value = {"ZIP_FILECOUNT_LIMIT": 3, "ZIP64_LIMIT": 1500}[limit]
    monkeypatch.setattr(zipfile, limit, value)
    monkeypatch.setattr(container, f"_{limit}", value)
    data = _write_zip(entries)
    assert b"PK\x06\x06" in data
    assert data == write_zip_reference(entries)
    assert read_container_entries(data) == read_zip_reference(data)


def test_header_past_the_zip64_limit_matches_the_zipfile_writer(monkeypatch):
    # zipfile moves a header offset past 2 GiB into a zip64 extra field of
    # the central directory; a lowered limit shows the same bytes
    entries = [(f"resources/{i}", random.Random(i).randbytes(200)) for i in range(6)]
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    monkeypatch.setattr(container, "_ZIP64_LIMIT", 1000)
    data = _write_zip(entries)
    assert struct.pack("<2HQ", 1, 8, zipfile.ZipFile(io.BytesIO(data)).getinfo("resources/5").header_offset) in data
    assert data == write_zip_reference(entries)
    assert read_container_entries(data) == read_zip_reference(data) == [("resources/", None), *entries]


def test_entry_that_needs_zip64_fields_is_refused(monkeypatch):
    monkeypatch.setattr(container, "_ZIP64_LIMIT", 1000)
    with pytest.raises(ContainerError) as exc:
        _write_zip([("resources/big", bytes(960))])
    assert exc.value.code == "ArchiveTooLarge"


def test_reader_agrees_with_zipfile_on_mutated_archives():
    # never accepts what zipfile refuses, and reads what both accept alike
    make = bench_workloads()._generated_container
    sources = [make(random.Random(seed), n, "g", 3) for seed, n in ((1, 10), (2, 10), (3, 100))]
    rng = random.Random(0)
    accepted = 0
    for i in range(1200):
        data = bytearray(sources[i % 3])
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        data = bytes(data)
        try:
            reference = read_zip_reference(data)
        except Exception:
            reference = None
        try:
            entries = read_container_entries(data)
        except ContainerError:
            continue
        assert entries == reference, i
        accepted += 1
    assert accepted > 50


def _one_entry(
    body: bytes, size: int, crc: int, method: int = 8, flags: int = 0, local_name: bytes = b"a.txt", zip64_size: int = 0
) -> bytes:
    """An archive of one file entry a.txt with the given raw fields; with
    ``zip64_size`` the central directory declares that size in a zip64
    extra field."""

    extra = struct.pack("<HHQ", 1, 8, zip64_size) if zip64_size else b""
    fields = (flags, method, 0, 0x21, crc, len(body), 0xFFFFFFFF if zip64_size else size)
    local = struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, *fields, len(local_name), 0) + local_name + body
    central = struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, *fields, 5, len(extra), 0, 0, 0, 0o644 << 16, 0)
    central += b"a.txt" + extra
    return local + central + struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 1, 1, len(central), len(local), 0)


_TEXT = b"the midpoints of a quadrilateral form a parallelogram\n" * 8


def _deflated(data: bytes, end: bool = True) -> bytes:
    deflater = zlib.compressobj(6, zlib.DEFLATED, -15)
    return deflater.compress(data) + deflater.flush(zlib.Z_FINISH if end else zlib.Z_SYNC_FLUSH)


def test_one_entry_archive_reads():
    data = _one_entry(_deflated(_TEXT), len(_TEXT), zlib.crc32(_TEXT))
    assert read_container_entries(data) == read_zip_reference(data) == [("a.txt", _TEXT)]


@pytest.mark.parametrize(
    "fields, reason",
    [
        # zipfile reads the first two: it stops at the end of the stream or
        # of the compressed bytes and checks the CRC of what it got
        (dict(body=_deflated(_TEXT), size=len(_TEXT) + 1), "432 bytes where 433 are declared"),
        (dict(body=_deflated(_TEXT, end=False)), "deflate stream does not end"),
        (dict(body=_deflated(_TEXT), size=len(_TEXT) - 1), "432 bytes where 431 are declared"),
        (dict(body=_TEXT, method=0, size=len(_TEXT) + 1), "432 bytes where 433 are declared"),
        (dict(body=_deflated(_TEXT), zip64_size=2**64 - 1), f"432 bytes where {2**64 - 1} are declared"),
        (dict(body=_deflated(_TEXT), crc=0), "bad CRC-32"),
        (dict(body=b"\xff" + _deflated(_TEXT)), "invalid block type"),
        (dict(body=bz2.compress(_TEXT), method=12), "unsupported compression method 12"),
        (dict(body=lzma.compress(_TEXT, format=lzma.FORMAT_ALONE), method=14), "unsupported compression method 14"),
        (dict(body=_deflated(_TEXT), flags=0x1), "encrypted or patched"),
        (dict(body=_deflated(_TEXT), flags=0x20), "encrypted or patched"),
        (dict(body=_deflated(_TEXT), flags=0x40), "encrypted or patched"),
        (dict(body=_deflated(_TEXT), local_name=b"b.txt"), "local header names another entry"),
    ],
    ids=[
        "declared_size_too_large",
        "no_end_marker",
        "declared_size_too_small",
        "stored_size_mismatch",
        "zip64_size_past_any_buffer",
        "bad_crc",
        "corrupt_deflate",
        "bzip2",
        "lzma",
        "encrypted",
        "patched",
        "strong_encryption",
        "local_name",
    ],
)
def test_unreadable_entry_is_malformed_zip(request, fields, reason):
    fields = {"size": len(_TEXT), "crc": zlib.crc32(_TEXT), **fields}
    data = _one_entry(**fields)
    if request.node.callspec.id in ("declared_size_too_large", "no_end_marker"):
        assert read_zip_reference(data) == [("a.txt", _TEXT)]
    with pytest.raises(ContainerError) as exc:
        read_container_entries(data)
    assert exc.value.code == "MalformedZip"
    assert str(exc.value).startswith("MalformedZip: cannot read entry 'a.txt': ") and reason in str(exc.value)
    assert [v.code for v in validate_container(data)] == ["MalformedZip"]


def test_inflation_stops_at_the_declared_size():
    # a small archive whose entry inflates to 20 MB but declares 10 bytes
    zeros = bytes(20_000_000)
    data = _one_entry(_deflated(zeros), 10, zlib.crc32(zeros[:10]))
    assert len(data) < 30_000
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="does not end within the declared size"):
            read_container_entries(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_entry_before_the_archive_start_is_malformed_zip():
    # a central directory offset 100 past its place puts the local header
    # 100 bytes before the start of the archive
    data = _write_zip([("b.txt", b"text")])
    offset = struct.unpack("<L", data[-6:-2])[0]
    moved = data[:-6] + struct.pack("<L", offset + 100) + data[-2:]
    with pytest.raises(ContainerError, match="'b.txt': no local header at offset -100"):
        read_container_entries(moved)


def _local_record(name: bytes, body: bytes) -> bytes:
    """A local header and the data of a stored file entry."""

    fields = (0, 0, 0, 0x21, zlib.crc32(body), len(body), len(body), len(name), 0)
    return struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, *fields) + name + body


def test_overlapping_entries_are_malformed_zip():
    # a.txt's stored data is b.txt's whole local record, and the central
    # directory points b.txt into it: a quoted overlap, the shape of a zip
    # bomb whose output grows with the square of its entry count.  zipfile
    # refuses it only from the patch releases that carry CPython gh-109858
    inner = _local_record(b"b.txt", _TEXT)
    outer = _local_record(b"a.txt", inner)
    central = b""
    for name, body, offset in ((b"a.txt", inner, 0), (b"b.txt", _TEXT, len(outer) - len(inner))):
        fields = (0, 0, 0, 0x21, zlib.crc32(body), len(body), len(body), len(name), 0, 0, 0, 0, 0o644 << 16, offset)
        central += struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, *fields) + name
    data = outer + central + struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 2, 2, len(central), len(outer), 0)
    with pytest.raises(ContainerError) as exc:
        read_container_entries(data)
    assert exc.value.code == "MalformedZip"
    assert "'a.txt': overlaps the next entry or the central directory" in str(exc.value)


def test_entry_running_into_the_central_directory_is_malformed_zip():
    # the deflate stream ends where it should, but the declared compressed
    # size takes in ten bytes of the central directory (gh-109858 again)
    data = _write_zip([("a.txt", _TEXT)])
    field = data.index(b"PK\x01\x02") + 20
    (size,) = struct.unpack_from("<L", data, field)
    data = data[:field] + struct.pack("<L", size + 10) + data[field + 4 :]
    with pytest.raises(ContainerError) as exc:
        read_container_entries(data)
    assert exc.value.code == "MalformedZip"
    assert "'a.txt': overlaps the next entry or the central directory" in str(exc.value)


@pytest.mark.parametrize("cut", [10, 40, 100])
def test_truncated_entry_is_malformed_zip(corpus_containers, cut):
    # the central directory survives; the local header or data it points at
    # is cut off
    data = corpus_containers["varignon"]
    info = zipfile.ZipFile(io.BytesIO(data)).getinfo("construction/intergeo.xml")
    start = info.header_offset + cut
    size, offset = struct.unpack("<LL", data[-10:-2])
    cut_data = data[:start] + data[offset : offset + size] + data[-22:-6] + struct.pack("<LH", start, 0)
    with pytest.raises(ContainerError) as exc:
        read_container_entries(cut_data)
    assert exc.value.code == "MalformedZip" and "'construction/intergeo.xml'" in str(exc.value)


def test_comment_and_prepended_bytes_still_read(corpus_containers):
    data = corpus_containers["varignon_attempts"]
    entries = read_container_entries(data)
    commented = data[:-2] + struct.pack("<H", 9) + b"a comment"
    prepended = b"#!/bin/sh\nexit 0\n" + data
    for variant in (commented, prepended):
        assert read_container_entries(variant) == entries == read_zip_reference(variant)


# ---------------------------------------------------------------------------
# One reading of the layout: which proofInfo.xml files are attempts


def _proof_info(prover: str) -> bytes:
    return serialize_proof_info(ProofAttempt(prover, "1", "m", ProofStatus.PROVED))


@pytest.mark.parametrize(
    "stray, violations",
    [
        ("proofs/proofB1m/notes/proofInfo.xml", []),
        ("proofs/proofInfo.xml", [Violation("UnknownEntry", "proofs/proofInfo.xml", "unexpected file under proofs/")]),
    ],
    ids=["prover-output", "loose"],
)
def test_proof_info_outside_an_attempt_names_no_attempt(corpus, stray, violations):
    # add_proof_attempt used to refuse (C, 1, m) here, though unpack listed
    # only B and validate read only B's proofInfo.xml
    entries = read_container_entries(pack(corpus["varignon"]))
    data = _write_zip([*entries, ("proofs/proofB1m/proofInfo.xml", _proof_info("B")), (stray, _proof_info("C"))])
    assert validate_container(data) == violations
    assert [a.prover for a in unpack(data).proofs] == ["B"]
    updated = add_proof_attempt(data, ProofAttempt("C", "1", "m", ProofStatus.PROVED))
    assert [a.prover for a in unpack(updated).proofs] == ["B", "C"]
    assert validate_container(updated) == violations


@pytest.mark.parametrize("loose", ["proofs/readme.txt", "proofs/proofInfo.xml"])
def test_loose_file_under_proofs_is_unknown_entry(corpus, loose):
    # readme.txt was BadProofDirName at proofs/readme.txt/, and a loose
    # proofInfo.xml passed, as a proof directory that held nothing
    entries = read_container_entries(pack(corpus["varignon"]))
    data = _write_zip([*entries, (loose, _proof_info("C"))])
    assert validate_container(data) == [Violation("UnknownEntry", loose, "unexpected file under proofs/")]


@pytest.mark.parametrize("below", [("proofs/proofA1m/", None), ("proofs/proofA1m/out.txt", b"x")], ids=["dir", "file"])
def test_entry_below_proofs_implies_the_directory(corpus, below):
    # a directory entry alone used to leave proofs/ missing
    entries = [e for e in read_container_entries(pack(corpus["varignon"])) if e[0] != "proofs/"]
    assert validate_entries([*entries, below]) == []


def test_validate_entries_reports_a_path_given_twice(corpus):
    entries = read_container_entries(pack(corpus["varignon"]))
    twice = [*entries, ("resources/a.txt", b"1"), ("resources/a.txt", b"2")]
    message = "entry 'resources/a.txt' is given more than once"
    assert validate_entries(twice) == [Violation("DuplicateEntry", "resources/a.txt", message)]
    with pytest.raises(ContainerError) as exc:
        problem_from_entries(twice)
    assert exc.value.code == "DuplicateEntry"


# Paths where a proofInfo.xml, another file or (ending in '/') a directory
# entry may sit; every proofInfo.xml names its own identity, so validate
# reports each one it reads as DirNameMismatch
_LAYOUT_ALPHABET = (
    "information/",
    "conjecture/",
    "proofs/",
    "proofs/proofA1m/",
    "proofs/proofA1m/proofInfo.xml",
    "proofs/proofA1m/out.txt",
    "proofs/proofB2.0x_y/proofInfo.xml",
    "proofs/proofB2.0x_y/notes/proofInfo.xml",
    "proofs/proofC3n/sub/proofInfo.xml",
    "proofs/proofD4q/proofInfo.xml/",
    "proofs/proofE5r/",
    "proofs/proof/proofInfo.xml",
    "proofs/myattempt/proofInfo.xml",
    "proofs/myattempt/",
    "proofs/proofInfo.xml",
    "proofs/proofZ9q",
    "proofs/readme.txt",
    "proofInfo.xml",
    "resources/proofInfo.xml",
    "metadata/proofs/proofF6s/proofInfo.xml",
    "weird/x.txt",
)
_ATTEMPT_PATH = re.compile(r"proofs/proof[A-Za-z0-9_.-]+/proofInfo\.xml")
_MINIMAL_FILES = [e for e in read_container_entries(pack(parse_dsl(MINIMAL_DSL))) if e[1] is not None]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(_LAYOUT_ALPHABET)))
def test_unpack_validate_and_add_proof_attempt_agree_on_the_attempts(chosen):
    infos = sorted(p for p in chosen if p.rpartition("/")[2] == "proofInfo.xml")
    path_of = {(f"Q{i}", "1", "m"): path for i, path in enumerate(infos)}
    content = {path: _proof_info(prover) for (prover, _, _), path in path_of.items()}
    data = _rezip(_MINIMAL_FILES + [(p, None if p.endswith("/") else content.get(p, b"x")) for p in sorted(chosen)])

    unpacked = {path_of[a.identity] for a in unpack(data).proofs}
    read = {v.path + "proofInfo.xml" for v in validate_container(data) if v.code == "DirNameMismatch"}
    refused = set()
    for identity, path in path_of.items():
        try:
            add_proof_attempt(data, ProofAttempt(*identity, ProofStatus.PROVED))
        except ContainerError as exc:
            assert exc.code == "DuplicateAttempt"
            refused.add(path)
    assert unpacked == read == refused == {p for p in infos if _ATTEMPT_PATH.fullmatch(p)}
