"""Zip container packing, unpacking, validation and i2g extraction.

Layout contract (see docs/container.md): information/, construction/,
conjecture/ and proofs/ are always present as directories;
construction/intergeo.xml is the only mandatory file; every proof attempt
lives in proofs/proof<prover><version><method>/.  Packing is byte
deterministic: fixed timestamps, lexicographically sorted entries, deflate
for files above 256 bytes and stored below.  This module writes the zip
headers itself, and reads each entry straight from the archive bytes;
``zipfile`` only parses the central directory.

The i2g container is recovered by dropping the three extra directories and
relocating construction/ content to the archive root; intergeo.xml bytes are
never touched by that operation.
"""

from __future__ import annotations

import io
import re
import struct
import sys
import zipfile
import zlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import replace
from typing import NamedTuple

from .errors import ContainerError
from .model import (
    Construction,
    Problem,
    ProofAttempt,
    Violation,
    canonicalize_problem,
    is_safe_relative_path,
    validate_attempt,
    validate_problem,
)
from .xml_codec import (
    DocumentKind,
    _read,
    _write_conjecture,
    _write_construction,
    _write_information,
    _write_proof_info,
    parse_conjecture,
    parse_construction,
    parse_information,
    parse_proof_info,
)

# Unused here: every value is validated once before its _write_* call, and
# validation reads each document once through _read.  Kept importable
# because bench/tracer.py swaps these names in this module.
from .xml_codec import serialize_conjecture, serialize_construction, serialize_information, serialize_proof_info  # noqa: F401
from .xml_codec import validate_document  # noqa: F401

__all__ = [
    "add_proof_attempt",
    "canonicalize_container",
    "entries_from_problem",
    "pack",
    "problem_from_entries",
    "read_container_entries",
    "strip_to_i2g",
    "suggested_filename",
    "unpack",
    "validate_container",
    "validate_entries",
]

MANDATORY_DIRS = ("information/", "construction/", "conjecture/", "proofs/")
EXTENSION_DIRS = ("information/", "conjecture/", "proofs/")  # absent from the i2g layout
INTERGEO_PATH = "construction/intergeo.xml"
INFORMATION_PATH = "information/information.xml"
CONJECTURE_PATH = "conjecture/conjecture.xml"
PROOF_INFO_NAME = "proofInfo.xml"

PROOF_DIR_RE = re.compile(r"proof[A-Za-z0-9_.-]+\Z")

_DEFLATE_THRESHOLD = 256  # bytes; larger files are deflated, smaller stored
_DEFLATE_LEVEL = 6

# The fixed header fields of every entry (docs/container.md): versions 2.0,
# created on unix, 1980-01-01 00:00:00 in DOS form, no extra field.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP64_OFFSET = struct.Struct("<2HQ")  # extra field 1 holding only the header offset
_ZIP64_END_RECORD = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_VERSION = 20
_ZIP64_VERSION = 45
_UNIX = 3
_DOS_DATE = 0x0021
_UTF8_NAME = 0x800
_FILE_ATTR = 0o644 << 16
_DIR_ATTR = (0o40755 << 16) | 0x10
_STORED, _DEFLATED = 0, 8
_ZIP64_LIMIT = (1 << 31) - 1  # past it a size or offset needs zip64 fields
_ZIP_FILECOUNT_LIMIT = (1 << 16) - 1  # past it the end record is zip64's
_UNSUPPORTED_FLAGS = 0x61  # encrypted (bit 0), patched (5), strong encryption (6)

# An entry is (path, bytes) for a file or (path ending in '/', None) for a
# directory.
Entry = tuple[str, bytes | None]


# ---------------------------------------------------------------------------
# Deterministic zip I/O


def _write_zip(entries: list[Entry]) -> bytes:
    """Deterministic archive of ``entries``, sorted by path; every parent
    directory of an entry gets its own directory entry."""

    names = {name for name, _ in entries}
    missing = _directories(names) - names
    parts: list[bytes] = []
    central: list[bytes] = []
    offset = 0
    for name, data in sorted(entries + [(d, None) for d in missing], key=lambda e: e[0]):
        if name.isascii():
            raw, flags = name.encode("ascii"), 0
        else:
            raw, flags = name.encode("utf-8"), _UTF8_NAME
        if data is None:
            method, crc, size, body, attr = _STORED, 0, 0, b"", _DIR_ATTR
        else:
            method, crc, size, body, attr = _STORED, zlib.crc32(data), len(data), data, _FILE_ATTR
            if size > _DEFLATE_THRESHOLD:
                deflater = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
                method, body = _DEFLATED, deflater.compress(data) + deflater.flush()
        if size * 1.05 > _ZIP64_LIMIT:
            raise ContainerError("ArchiveTooLarge", f"entry {name!r} would need zip64 size fields")
        fields = (flags, method, 0, _DOS_DATE, crc, len(body), size, len(raw))
        parts += (_LOCAL_HEADER.pack(b"PK\x03\x04", _VERSION, 0, *fields, 0), raw, body)
        if offset > _ZIP64_LIMIT:
            # as zipfile does: the offset moves into a zip64 extra field
            version, extra, header_offset = _ZIP64_VERSION, _ZIP64_OFFSET.pack(1, 8, offset), 0xFFFFFFFF
        else:
            version, extra, header_offset = _VERSION, b"", offset
        central.append(
            _CENTRAL_HEADER.pack(b"PK\x01\x02", version, _UNIX, version, 0, *fields, len(extra), 0, 0, 0, attr, header_offset)
            + raw
            + extra
        )
        offset += _LOCAL_HEADER.size + len(raw) + len(body)
    count = len(central)
    central_size = sum(map(len, central))
    end_offset = offset + central_size
    if count > _ZIP_FILECOUNT_LIMIT or offset > _ZIP64_LIMIT or central_size > _ZIP64_LIMIT:
        central.append(_ZIP64_END_RECORD.pack(b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, central_size, offset))
        central.append(_ZIP64_LOCATOR.pack(b"PK\x06\x07", 0, end_offset, 1))
        count, central_size, offset = min(count, 0xFFFF), min(central_size, 0xFFFFFFFF), min(offset, 0xFFFFFFFF)
    central.append(_END_RECORD.pack(b"PK\x05\x06", 0, 0, count, count, central_size, offset, 0))
    return b"".join(parts + central)


# what zipfile.ZipFile raises for an archive whose central directory is broken
_UNREADABLE = (zipfile.BadZipFile, NotImplementedError, ValueError)


def read_container_entries(data: bytes) -> list[Entry]:
    """Raw (path, bytes) entries of a container, path-checked; directory
    entries carry None."""

    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            infos = zf.infolist()
            central_start = zf.start_dir
    except _UNREADABLE as exc:
        raise ContainerError("MalformedZip", str(exc)) from exc
    # an entry's data must end by the next local header, or by the central
    # directory for the last one; the order of entries sharing an offset is
    # zipfile's, so this refuses what zipfile refuses as overlapped
    ends = [0] * len(infos)
    end = central_start
    for i in sorted(range(len(infos)), key=lambda i: infos[i].header_offset, reverse=True):
        ends[i] = end
        end = infos[i].header_offset
    view = memoryview(data)
    entries: list[Entry] = []
    seen: set[str] = set()
    for info, end in zip(infos, ends):
        name = info.orig_filename
        dir_entry = name.endswith("/")
        if not is_safe_relative_path(name[:-1] if dir_entry else name):
            raise ContainerError("BadPath", f"unsafe entry path {name!r}")
        if name in seen:
            raise ContainerError("DuplicateEntry", f"duplicate entry {name!r}")
        seen.add(name)
        entries.append((name, None if dir_entry else _entry_data(view, info, end)))
    return entries


def _entry_data(data: memoryview, info: zipfile.ZipInfo, end: int) -> bytes:
    """The content of a file entry, read from its local header on; it must
    be stored or deflated, end where its sizes say and by offset ``end``,
    and match its CRC-32."""

    def malformed(reason: str) -> ContainerError:
        return ContainerError("MalformedZip", f"cannot read entry {info.orig_filename!r}: {reason}")

    start = info.header_offset
    header = data[start : start + _LOCAL_HEADER.size]
    if start < 0 or len(header) < _LOCAL_HEADER.size:
        raise malformed(f"no local header at offset {start}")
    signature, _, _, flags, _, _, _, _, _, _, name_len, extra_len = _LOCAL_HEADER.unpack(header)
    if signature != b"PK\x03\x04":
        raise malformed("bad local header signature")
    start += _LOCAL_HEADER.size
    try:
        local_name = str(data[start : start + name_len], "utf-8" if flags & _UTF8_NAME else "cp437")
    except UnicodeDecodeError:
        local_name = None
    if local_name != info.orig_filename:
        raise malformed("local header names another entry")
    if info.flag_bits & _UNSUPPORTED_FLAGS:
        raise malformed("encrypted or patched")
    start += name_len + extra_len
    if start + info.compress_size > end:
        raise malformed("overlaps the next entry or the central directory")
    body = data[start : start + info.compress_size]
    if info.compress_type == _STORED:
        content = bytes(body)
    elif info.compress_type == _DEFLATED:
        inflater = zlib.decompressobj(-15)
        try:
            content = inflater.decompress(body, min(info.file_size + 1, sys.maxsize))
        except zlib.error as exc:
            raise malformed(str(exc)) from exc
        if not inflater.eof:
            raise malformed("deflate stream does not end within the declared size")
    else:
        raise malformed(f"unsupported compression method {info.compress_type}")
    if len(content) != info.file_size:
        raise malformed(f"{len(content)} bytes where {info.file_size} are declared")
    if zlib.crc32(content) != info.CRC:
        raise malformed("bad CRC-32")
    return content


def _directories(names: Iterable[str]) -> set[str]:
    """Every directory that ``names`` list or imply: each name ending in '/'
    and every parent of a name."""

    dirs: set[str] = set()
    for name in names:
        # the name's own directory, then its parents up to the first one seen
        path = name[: name.rfind("/") + 1]
        while path and path not in dirs:
            dirs.add(path)
            path = path[: path.rfind("/", 0, -1) + 1]
    return dirs


# ---------------------------------------------------------------------------
# Problem <-> entries


def _refuse_invalid(what: str, violations: list[Violation]) -> None:
    if violations:
        first = violations[0]
        message = f"{what} has {len(violations)} violation(s); first: {first.code} at {first.path}"
        raise ContainerError("InvalidProblem", message, violations)


def entries_from_problem(problem: Problem) -> list[Entry]:
    """Container entries of a valid problem, in canonical order; raises
    ``InvalidProblem`` with every violation otherwise."""

    _refuse_invalid("problem", validate_problem(problem))
    files: dict[str, bytes] = {}

    def put(path: str, data: bytes) -> None:
        if path in files:
            raise ContainerError("DuplicateEntry", f"path {path!r} produced twice")
        files[path] = data

    if problem.info is not None:
        put(INFORMATION_PATH, _write_information(problem.info))
    put(INTERGEO_PATH, _write_construction(problem.construction))
    if problem.conjecture is not None:
        put(CONJECTURE_PATH, _write_conjecture(problem.conjecture))
    for attempt in problem.proofs:
        base = f"proofs/{attempt.directory_name}/"
        put(base + PROOF_INFO_NAME, _write_proof_info(attempt))
        for name, data in attempt.outputs:
            put(base + name, data)
    for section in (problem.resources, problem.metadata, problem.private):
        for path, data in section:
            put(path, data)

    entries: list[Entry] = [(d, None) for d in MANDATORY_DIRS]
    entries.extend(files.items())
    return sorted(entries, key=lambda e: e[0])


class _Layout(NamedTuple):
    files: dict[str, bytes]
    dirs: set[str]
    proof_dirs: dict[str, dict[str, bytes]]
    attempts: dict[str, dict[str, bytes]]
    duplicates: list[str]


def _sort_entries(entries: list[Entry]) -> _Layout:
    """The one reading of the container layout: the files by path; every
    directory, listed or implied by an entry below it; for each directory
    directly under proofs/, by name and in name order, its files by their
    path inside it; the attempts among those directories (named by
    ``PROOF_DIR_RE``, with a proofInfo.xml directly inside); and the paths
    given more than once, of which the last entry is read."""

    files = {name: data for name, data in entries if data is not None}
    dirs = _directories(name for name, _ in entries)
    proof_dirs = {d[len("proofs/") : -1]: {} for d in sorted(dirs) if d.startswith("proofs/") and d.count("/") == 2}
    for name, data in files.items():
        if name.startswith("proofs/"):
            dirname, _, inner = name[len("proofs/") :].partition("/")
            if inner:
                proof_dirs[dirname][inner] = data
    attempts = {d: group for d, group in proof_dirs.items() if PROOF_DIR_RE.match(d) and PROOF_INFO_NAME in group}
    duplicates = [name for name, count in Counter(name for name, _ in entries).items() if count > 1]
    return _Layout(files, dirs, proof_dirs, attempts, duplicates)


def problem_from_entries(entries: list[Entry]) -> Problem:
    """Build a problem from container entries (inverse of
    :func:`entries_from_problem` up to canonical order).

    Lenient about extras: unknown files under known directories and unknown
    top-level entries are carried as resources; proof directories that hold
    no attempt are carried file-by-file.  Strict about the essentials: no
    path twice, construction/intergeo.xml must exist and nested documents
    must parse.
    """

    layout = _sort_entries(entries)
    if layout.duplicates:
        raise ContainerError("DuplicateEntry", f"duplicate entry {layout.duplicates[0]!r}")
    files = layout.files
    if INTERGEO_PATH not in files:
        raise ContainerError("MissingIntergeo", f"container lacks {INTERGEO_PATH}")

    construction = parse_construction(files.pop(INTERGEO_PATH))
    info = parse_information(files.pop(INFORMATION_PATH)) if INFORMATION_PATH in files else None
    conjecture = parse_conjecture(files.pop(CONJECTURE_PATH)) if CONJECTURE_PATH in files else None
    proofs: list[ProofAttempt] = []
    for dirname, group in layout.attempts.items():
        for inner in group:
            del files[f"proofs/{dirname}/{inner}"]
        attempt = parse_proof_info(group.pop(PROOF_INFO_NAME))
        proofs.append(replace(attempt, outputs=tuple(sorted(group.items()))))

    resources: list[tuple[str, bytes]] = []
    metadata: list[tuple[str, bytes]] = []
    private: list[tuple[str, bytes]] = []
    for path in sorted(files):
        section = metadata if path.startswith("metadata/") else private if path.startswith("private/") else resources
        section.append((path, files[path]))
    return canonicalize_problem(
        Problem(
            construction=construction,
            info=info,
            conjecture=conjecture,
            proofs=tuple(proofs),
            resources=tuple(resources),
            metadata=tuple(metadata),
            private=tuple(private),
        )
    )


# ---------------------------------------------------------------------------
# Public container operations


def pack(problem: Problem) -> bytes:
    """Pack a valid problem into deterministic zip bytes."""

    return _write_zip(entries_from_problem(problem))


def suggested_filename(problem: Problem, name: str | None = None) -> str:
    """Conventional archive filename problem<name>.zip."""

    if name is None:
        if problem.info is None:
            raise ValueError("problem has no information record; pass an explicit name")
        name = problem.info.name
    return f"problem{name}.zip"


def unpack(data: bytes) -> Problem:
    """Read a container back into a problem (canonical order)."""

    return problem_from_entries(read_container_entries(data))


def canonicalize_container(data: bytes) -> bytes:
    """pack-after-unpack; the identity on canonically packed containers."""

    return pack(unpack(data))


def strip_to_i2g(data: bytes) -> bytes:
    """Drop information/, conjecture/ and proofs/; relocate construction/
    content to the archive root (the i2g layout).  File bytes, in particular
    intergeo.xml, are carried unchanged; idempotent.  Two entries that
    relocate to one path (``construction/a`` and a root ``a``) are
    ``DuplicateEntry``."""

    files: dict[str, bytes] = {}
    sources: dict[str, str] = {}
    for name, content in read_container_entries(data):
        if content is None or name.startswith(EXTENSION_DIRS):
            continue
        target = name[len("construction/") :] if name.startswith("construction/") else name
        if target in sources:
            raise ContainerError("DuplicateEntry", f"entries {sources[target]!r} and {name!r} both become {target!r}")
        sources[target] = name
        files[target] = content
    if "intergeo.xml" not in files:
        raise ContainerError("MissingIntergeo", "container lacks construction/intergeo.xml")
    return _write_zip(list(files.items()))


def add_proof_attempt(data: bytes, attempt: ProofAttempt) -> bytes:
    """Insert one proof attempt directory; every other entry's content is
    carried unchanged (the archive is rewritten canonically)."""

    _refuse_invalid("attempt", validate_attempt(attempt))
    entries = read_container_entries(data)
    layout = _sort_entries(entries)
    new_dir = f"proofs/{attempt.directory_name}/"
    if attempt.directory_name in layout.proof_dirs:
        raise ContainerError("DuplicateAttempt", f"directory {new_dir!r} already present")
    for group in layout.attempts.values():
        # an invalid attempt still has an identity; only an unreadable one has none
        other = _read(DocumentKind.PROOF_INFO, group[PROOF_INFO_NAME])[0]
        if other is not None and other.identity == attempt.identity:
            identity = f"{attempt.prover}/{attempt.version}/{attempt.method}"
            raise ContainerError("DuplicateAttempt", f"attempt {identity} already present")
    added: list[Entry] = [(new_dir + PROOF_INFO_NAME, _write_proof_info(attempt))]
    added.extend((new_dir + name, out_data) for name, out_data in attempt.outputs)
    return _write_zip(entries + added)


# ---------------------------------------------------------------------------
# Container validation

_KNOWN_TOP_DIRS = (*MANDATORY_DIRS, "metadata/", "resources/", "private/")


def _read_entry(
    out: list[Violation], kind: DocumentKind, entry: str, data: bytes, construction: Construction | None = None
):
    """The value read from one entry (None if unreadable); its violations,
    unknown tags included, are appended to ``out`` located at the entry."""

    value, violations, _strangers = _read(kind, data, construction)
    out.extend(Violation(v.code, f"{entry}{v.path}", v.message) for v in violations)
    return value


def validate_container(data: bytes, i2g: bool = False) -> list[Violation]:
    """Manifest-level plus per-document violations, entry paths in locators.

    With ``i2g`` the stripped layout is checked instead: intergeo.xml at the
    root, none of the three extension directories.
    """

    try:
        entries = read_container_entries(data)
    except ContainerError as exc:
        return [Violation(exc.code, "/", str(exc))]
    return validate_entries(entries, i2g)


def validate_entries(entries: list[Entry], i2g: bool = False) -> list[Violation]:
    """validate_container over already-extracted entries (e.g. a directory
    tree mirroring the container layout), whose paths no zip reader has
    checked; a path given twice is ``DuplicateEntry``."""

    for name, _content in entries:
        if not is_safe_relative_path(name[:-1] if name.endswith("/") else name):
            return [Violation("BadPath", name, f"unsafe entry path {name!r}")]
    layout = _sort_entries(entries)
    files = layout.files
    out = [Violation("DuplicateEntry", name, f"entry {name!r} is given more than once") for name in layout.duplicates]

    if i2g:
        if "intergeo.xml" not in files:
            out.append(Violation("MissingIntergeo", "intergeo.xml", "i2g container lacks a root intergeo.xml"))
        else:
            _read_entry(out, DocumentKind.CONSTRUCTION, "intergeo.xml", files["intergeo.xml"])
        for name in sorted(files) + sorted(layout.dirs):
            if name.startswith(EXTENSION_DIRS):
                out.append(Violation("UnexpectedEntry", name, "extension directories must be stripped from an i2g container"))
        return out

    for d in MANDATORY_DIRS:
        if d not in layout.dirs:
            out.append(Violation("MissingMandatoryDir", d, f"mandatory directory {d!r} is absent"))
    construction = None
    if INTERGEO_PATH not in files:
        out.append(Violation("MissingIntergeo", INTERGEO_PATH, "the construction document is mandatory"))
    else:
        found = len(out)
        construction = _read_entry(out, DocumentKind.CONSTRUCTION, INTERGEO_PATH, files[INTERGEO_PATH])
        if len(out) > found:
            construction = None  # so its faults do not return as unresolved conjecture ids
    if INFORMATION_PATH in files:
        _read_entry(out, DocumentKind.INFORMATION, INFORMATION_PATH, files[INFORMATION_PATH])
    if CONJECTURE_PATH in files:
        _read_entry(out, DocumentKind.CONJECTURE, CONJECTURE_PATH, files[CONJECTURE_PATH], construction)

    triples_seen: set[tuple[str, str, str]] = set()
    for dirname in layout.proof_dirs:
        dir_path = f"proofs/{dirname}/"
        if not PROOF_DIR_RE.match(dirname):
            out.append(Violation("BadProofDirName", dir_path, "proof directories are named proof<GATP><Version><Method>"))
            continue
        if dirname not in layout.attempts:
            continue  # proofInfo.xml itself is optional
        info_path = dir_path + PROOF_INFO_NAME
        attempt = _read_entry(out, DocumentKind.PROOF_INFO, info_path, files[info_path])
        if attempt is None:
            continue
        if attempt.identity in triples_seen:
            message = f"attempt {attempt.prover}/{attempt.version}/{attempt.method} appears in more than one directory"
            out.append(Violation("DuplicateAttempt", info_path, message))
        triples_seen.add(attempt.identity)
        if attempt.directory_name != dirname:
            message = f"directory named {dirname!r} but proofInfo.xml identifies {attempt.directory_name!r}"
            out.append(Violation("DirNameMismatch", dir_path, message))

    for name in sorted(files):
        top = name.split("/", 1)[0] + "/"
        if top not in _KNOWN_TOP_DIRS and "/" in name:
            out.append(Violation("UnknownEntry", name, f"unknown top-level directory {top!r}"))
        elif "/" not in name:
            out.append(Violation("UnknownEntry", name, "loose file at container root"))
        elif (top in ("information/", "conjecture/") and name not in (INFORMATION_PATH, CONJECTURE_PATH)) or (
            top == "proofs/" and name.count("/") == 1
        ):
            out.append(Violation("UnknownEntry", name, f"unexpected file under {top}"))
    return out
