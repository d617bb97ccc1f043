"""Container packing, unpacking, i2g extraction and manifest validation."""

from __future__ import annotations

import dataclasses
import io
import random
import zipfile

import pytest

from i2gatp.container import (
    add_proof_attempt,
    canonicalize_container,
    pack,
    strip_to_i2g,
    suggested_filename,
    unpack,
    validate_container,
)
from i2gatp.errors import ContainerError, I2gatpError
from i2gatp.model import (
    Collinear,
    Conjecture,
    ProofAttempt,
    ProofStatus,
    canonicalize_problem,
)

from conftest import corrupt_intergeo, generated_container


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
    from i2gatp.model import validate_problem

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
