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
    validate_attempt,
    validate_problem,
)
from i2gatp.xml_codec import serialize_proof_info

from conftest import MINIMAL_DSL, bench_workloads, corrupt_intergeo, generated_container
from oracles import read_zip_reference, write_zip_reference

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


def test_path_with_no_utf8_form_is_bad_path(corpus):
    # a lone surrogate, as a file name that is not UTF-8 reads back as: pack
    # raised UnicodeEncodeError on a problem that validate_problem passed
    attempt = ProofAttempt("P", "1", "m", ProofStatus.PROVED, outputs=(("\udc80", b"2"),))
    for fields, path in (
        ({"resources": (("resources/\udc80", b"1"),)}, "/resources/resources/\udc80"),
        ({"proofs": (attempt,)}, "/proofs/attempt[0]/outputs/\udc80"),
    ):
        p = dataclasses.replace(corpus["varignon"], **fields)
        assert [(v.code, v.path) for v in validate_problem(p)] == [("BadPath", path)]
        with pytest.raises(ContainerError) as exc:
            pack(p)
        assert exc.value.code == "InvalidProblem"
    with pytest.raises(ContainerError) as exc:
        add_proof_attempt(pack(corpus["varignon"]), attempt)
    assert exc.value.code == "InvalidProblem" and exc.value.violations[0].code == "BadPath"


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


def test_deflate_is_the_reference_level_6_stream():
    # PACK_SHA256 holds only where zlib emits its reference stream; another
    # deflate (zlib-ng, a hardware one) may emit a different valid stream,
    # which moves compressed sizes and offsets but never what inflates
    doc = b"".join(b'<point id="P%d" x="%d.%d" y="%d.5"/>\n' % (i, i * 7 % 13, i * i % 97, i * 3 % 11) for i in range(200))
    deflater = zlib.compressobj(container._DEFLATE_LEVEL, zlib.DEFLATED, -15)
    body = deflater.compress(doc) + deflater.flush()
    assert zlib.decompress(body, -15) == doc
    assert hashlib.sha256(body).hexdigest() == "8e97553f6d3f0616a3a7f10ec2967efc1af7a829a1984069205df4869fd66933", (
        f"zlib {zlib.ZLIB_RUNTIME_VERSION} does not emit the level-6 deflate stream of zlib 1.2.13; "
        "packed archives inflate to the same entries but their bytes differ from PACK_SHA256"
    )


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
def test_zip64_end_record_of_the_zipfile_writer_reads(monkeypatch, limit):
    # past 65535 entries, or a central directory past 2 GiB, zipfile adds the
    # zip64 end record; lowered limits show it on small archives.  The caps
    # keep the container's own writer below both limits
    entries = [(f"resources/{i:03d}", random.Random(i).randbytes(300)) for i in range(5)]
    monkeypatch.setattr(zipfile, limit, {"ZIP_FILECOUNT_LIMIT": 3, "ZIP64_LIMIT": 1500}[limit])
    data = write_zip_reference(entries)
    assert b"PK\x06\x06" in data
    assert read_container_entries(data) == read_zip_reference(data) == [("resources/", None), *entries]


def test_header_past_the_zip64_limit_of_the_zipfile_writer_reads(monkeypatch):
    # zipfile moves a header offset past 2 GiB into a zip64 extra field of
    # the central directory; a lowered limit shows it on a small archive
    entries = [(f"resources/{i}", random.Random(i).randbytes(200)) for i in range(6)]
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    data = write_zip_reference(entries)
    assert struct.pack("<2HQ", 1, 8, zipfile.ZipFile(io.BytesIO(data)).getinfo("resources/5").header_offset) in data
    assert read_container_entries(data) == read_zip_reference(data) == [("resources/", None), *entries]


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
        (dict(body=_deflated(_TEXT), zip64_size=2**64 - 1), f"holds {2**64 - 1} bytes, past the 33554432 a file may hold"),
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
    # a cap is judged over the central directory, before the entry is read
    capped = request.node.callspec.id == "zip64_size_past_any_buffer"
    prefix = "MalformedZip: entry 'a.txt' " if capped else "MalformedZip: cannot read entry 'a.txt': "
    assert str(exc.value).startswith(prefix) and reason in str(exc.value)
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


@pytest.mark.parametrize("below", [("resources/a/b", b"2"), ("resources/a/", None)], ids=["file", "dir"])
def test_a_file_and_a_directory_at_one_path_is_duplicate_entry(corpus, tmp_path, capsys, below):
    # validate used to pass such an archive and unpack to carry both, so
    # i2gatp unpack failed with EEXIST after writing part of the tree
    entries = [*read_container_entries(pack(corpus["varignon"])), ("resources/a", b"1"), below]
    message = "entry 'resources/a' is both a file and a directory"
    assert validate_entries(entries) == [Violation("DuplicateEntry", "resources/a", message)]
    with pytest.raises(ContainerError, match=f"DuplicateEntry: {message}"):
        problem_from_entries(entries)
    data = _rezip(entries)
    attempt = ProofAttempt("GCLCprover", "2.0", "areamethod", ProofStatus.PROVED)
    for call in (read_container_entries, unpack, strip_to_i2g, lambda d: add_proof_attempt(d, attempt)):
        with pytest.raises(ContainerError, match=f"DuplicateEntry: {message}"):
            call(data)
    assert validate_container(data) == [Violation("DuplicateEntry", "/", f"DuplicateEntry: {message}")]
    archive = tmp_path / "clash.zip"
    archive.write_bytes(data)
    outdir = tmp_path / "out"
    assert main(["unpack", str(archive), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: DuplicateEntry: {message}\n"
    assert not outdir.exists()


def test_pack_refuses_a_file_and_a_directory_at_one_path(corpus):
    p = corpus["varignon_files"]
    p = dataclasses.replace(p, resources=p.resources + (("resources/a", b"1"), ("resources/a/b/c", b"2")))
    for call in (entries_from_problem, pack):
        with pytest.raises(ContainerError, match="DuplicateEntry: entry 'resources/a' is both a file and a directory"):
            call(p)
    # an attempt's outputs are files of the same tree
    attempt = ProofAttempt("GCLCprover", "2.0", "areamethod", ProofStatus.PROVED, outputs=(("log", b"1"), ("log/2", b"2")))
    with pytest.raises(ContainerError, match="'proofs/proofGCLCprover2.0areamethod/log' is both"):
        pack(dataclasses.replace(p, resources=(), proofs=(attempt,)))


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


# ---------------------------------------------------------------------------
# One judge of what a container may hold, for the reader and every writer

_GCLC_AREA = ProofAttempt("GCLCprover", "2.0", "areamethod", ProofStatus.PROVED)


@pytest.mark.parametrize(
    "outputs, message",
    [
        ((("log", b"1"), ("log/2", b"2")), "entry 'proofs/proofGCLCprover2.0areamethod/log' is both a file and a directory"),
        ((("proofInfo.xml", b"x"),), "entry 'proofs/proofGCLCprover2.0areamethod/proofInfo.xml' is given more than once"),
    ],
    ids=["output_is_a_directory", "output_is_the_proof_info"],
)
def test_writers_refuse_outputs_the_reader_refuses(corpus, corpus_containers, outputs, message):
    # add_proof_attempt wrote both archives, which validate and unpack refused
    attempt = dataclasses.replace(_GCLC_AREA, outputs=outputs)
    assert validate_attempt(attempt) == []
    for call in (
        lambda: add_proof_attempt(corpus_containers["varignon"], attempt),
        lambda: pack(dataclasses.replace(corpus["varignon"], proofs=(attempt,))),
    ):
        with pytest.raises(ContainerError, match=re.escape(f"DuplicateEntry: {message}")):
            call()


def test_strip_refuses_a_relocated_file_that_is_also_a_directory(corpus_containers):
    # construction/x becomes x, beside x/y: an i2g archive validate --i2g refused
    entries = read_container_entries(corpus_containers["varignon"]) + [("construction/x", b"1"), ("x/y", b"2")]
    with pytest.raises(ContainerError, match="DuplicateEntry: entry 'x' is both a file and a directory"):
        strip_to_i2g(_write_zip(entries))


def test_pack_refuses_a_file_at_a_mandatory_directory(varignon):
    # validate_problem passes it, but the file clashes with proofs/
    p = dataclasses.replace(varignon, resources=(("proofs", b"x"),))
    assert validate_problem(p) == []
    for call in (entries_from_problem, pack):
        with pytest.raises(ContainerError, match="DuplicateEntry: entry 'proofs' is both a file and a directory"):
            call(p)


def test_pack_refuses_a_name_past_the_header_field(varignon):
    # a 70,000-byte path raised struct.error
    p = dataclasses.replace(varignon, resources=(("resources/" + "a" * 70_000, b"x"),))
    with pytest.raises(ContainerError, match="ArchiveTooLarge: entry name 'resources/a+'... is longer than 65535 bytes"):
        pack(p)
    # a name of 65,535 bytes fits, and 16,384 four-byte characters do not
    assert read_container_entries(_write_zip([("a" * 65_535, b"")])) == [("a" * 65_535, b"")]
    with pytest.raises(ContainerError, match="ArchiveTooLarge"):
        _write_zip([("\U0001f600" * 16_384, b"")])


def _zeros_bomb(base: bytes, size: int) -> bytes:
    """``base`` with resources/zeros.bin, ``size`` deflated zero bytes that
    declare their true size, written in chunks."""

    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(base)) as src, zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for info in src.infolist():
            zf.writestr(info, src.read(info))
        with zf.open("resources/zeros.bin", "w") as out:
            for _ in range(size >> 20):
                out.write(bytes(1 << 20))
    return buf.getvalue()


def test_zip_bomb_is_refused_before_it_is_inflated(corpus_containers):
    # 50 MB of zeros in about 50 KB passed validate_container, inflated in full
    data = _zeros_bomb(corpus_containers["varignon"], 50 << 20)
    assert len(data) < 60_000
    message = "MalformedZip: entry 'resources/zeros.bin' holds 52428800 bytes, past the 33554432 a file may hold"
    tracemalloc.start()
    try:
        assert validate_container(data) == [Violation("MalformedZip", "/", message)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    for call in (read_container_entries, unpack, strip_to_i2g, lambda d: add_proof_attempt(d, _GCLC_AREA)):
        with pytest.raises(ContainerError, match=re.escape(message)):
            call(data)


@pytest.mark.parametrize("cap", ["_MAX_ENTRIES", "_MAX_ENTRY_SIZE", "_MAX_TOTAL_SIZE"])
def test_reader_and_writer_share_the_caps(monkeypatch, cap):
    # lowered caps show on small archives: the writer refuses what the
    # reader refuses, and the reader refuses what another tool wrote
    entries = [("resources/a/b.txt", bytes(300)), ("resources/c.txt", bytes(200))]
    assert len(read_container_entries(_write_zip(entries))) == 4
    caps, message = {
        "_MAX_ENTRIES": ({"_MAX_ENTRIES": 3}, "4 entries with their directories, past the 3 allowed"),
        "_MAX_ENTRY_SIZE": ({"_MAX_ENTRY_SIZE": 250}, "entry 'resources/a/b.txt' holds 300 bytes, past the 250 a file may hold"),
        # a file's cap stays below the total's, as the caps are set
        "_MAX_TOTAL_SIZE": (
            {"_MAX_ENTRY_SIZE": 300, "_MAX_TOTAL_SIZE": 450},
            "entry 'resources/c.txt' takes the files past the 450 bytes allowed",
        ),
    }[cap]
    for name, value in caps.items():
        monkeypatch.setattr(container, name, value)
    with pytest.raises(ContainerError, match=re.escape(f"ArchiveTooLarge: {message}")):
        _write_zip(entries)
    with pytest.raises(ContainerError, match=re.escape(f"MalformedZip: {message}")):
        read_container_entries(write_zip_reference(entries))


def test_caps_keep_every_field_below_the_zip64_limits():
    # the writer packs no zip64 field: at the caps, the entry count, every
    # offset and the central directory's size fit the plain end record,
    # with deflate's worst-case growth (stored blocks, 5 bytes per 16 KiB)
    headers = container._MAX_ENTRIES * (container._LOCAL_HEADER.size + container._CENTRAL_HEADER.size)
    names = 2 * container._MAX_ENTRIES * container._MAX_NAME_BYTES
    bodies = container._MAX_TOTAL_SIZE + 5 * (container._MAX_TOTAL_SIZE // 16384 + 2 * container._MAX_ENTRIES)
    assert container._MAX_ENTRIES < 0xFFFF
    assert headers + names + bodies + container._END_RECORD.size < 2**31 - 1
    assert container._MAX_ENTRY_SIZE <= container._MAX_TOTAL_SIZE


def test_name_level_checks_precede_inflation(corpus_containers):
    # an entry that does not inflate, then a duplicate: the duplicate shows
    entries = [*read_container_entries(corpus_containers["varignon"]), ("resources/a", b"1"), ("resources/a", b"2")]
    buf = io.BytesIO()
    with warnings.catch_warnings(), zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns of the duplicate it writes
        for name, body in entries:
            zf.writestr(name, body or b"")
    data = corrupt_intergeo(buf.getvalue())
    with pytest.raises(ContainerError, match="MalformedZip: cannot read entry 'construction/intergeo.xml'"):
        read_container_entries(corrupt_intergeo(_write_zip(entries[:-1])))
    assert validate_container(data) == [
        Violation("DuplicateEntry", "/", "DuplicateEntry: entry 'resources/a' is given more than once")
    ]


# Paths a generated entry list draws from, with repeats: nested files and
# directories, and names that clash once an attempt's outputs or the i2g
# relocation place them
_ENTRY_ALPHABET = (
    "a", "a/", "a/b", "a/b/", "a/b/c", "a/d", "b", "b/c/", "proofInfo.xml", "log", "log/2",
    "construction/a", "construction/x", "construction/x/y", "x", "x/y", "proofs", "resources/r",
)  # fmt: skip


def _implied_dirs(names: list[str]) -> set[str]:
    return {name[: i + 1] for name in names for i, c in enumerate(name) if c == "/"}


def _writes_what_it_reads(call, entries: list[tuple[str, bytes | None]]) -> None:
    """``call()`` writes an archive that reads back as ``entries`` and the
    directories they imply, or refuses them as DuplicateEntry exactly when
    they repeat a path or hold a file at a directory."""

    names = [name for name, _ in entries]
    dirs = _implied_dirs(names)
    refused = len(set(names)) < len(names) or any(n + "/" in dirs for n in names)
    try:
        data = call()
    except ContainerError as exc:
        assert exc.code == "DuplicateEntry" and refused
        return
    assert not refused
    assert read_container_entries(data) == sorted({**dict.fromkeys(dirs), **dict(entries)}.items())


_entry_lists = st.lists(st.sampled_from(_ENTRY_ALPHABET), max_size=8).map(
    lambda names: [(n, None if n.endswith("/") else n.encode() * 30) for n in names]
)
_file_lists = _entry_lists.map(lambda entries: [(name, data) for name, data in entries if data is not None])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_entry_lists)
def test_the_writer_writes_only_what_the_reader_reads(entries):
    _writes_what_it_reads(lambda: _write_zip(entries), entries)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_file_lists, st.lists(st.sampled_from(_ENTRY_ALPHABET), unique=True, max_size=6))
def test_pack_and_add_proof_attempt_write_only_what_the_reader_reads(resources, output_names):
    outputs = tuple((name, b"out") for name in dict.fromkeys(n.rstrip("/") for n in output_names))
    attempt = dataclasses.replace(_GCLC_AREA, outputs=outputs)
    problem = dataclasses.replace(parse_dsl(MINIMAL_DSL), resources=tuple(resources))
    if validate_problem(problem):  # a resource given twice
        return
    base = f"proofs/{attempt.directory_name}/"
    written = [(d, None) for d in ("information/", "conjecture/", "proofs/")] + _MINIMAL_FILES + resources
    written += [(base + "proofInfo.xml", serialize_proof_info(attempt)), *((base + name, data) for name, data in outputs)]
    _writes_what_it_reads(lambda: pack(dataclasses.replace(problem, proofs=(attempt,))), written)
    try:
        data = pack(problem)
    except ContainerError:  # a resource at a mandatory directory, or clashing with another
        return
    _writes_what_it_reads(lambda: add_proof_attempt(data, attempt), written)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_file_lists)
def test_strip_writes_only_what_the_reader_reads(files):
    try:
        data = _write_zip(_MINIMAL_FILES + files)
    except ContainerError:
        return
    kept = [(name, body) for name, body in _MINIMAL_FILES + files if not name.startswith(("information/", "conjecture/", "proofs/"))]
    _writes_what_it_reads(lambda: strip_to_i2g(data), [(name.removeprefix("construction/"), body) for name, body in kept])
