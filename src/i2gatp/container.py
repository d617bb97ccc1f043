"""Zip container packing, unpacking, validation and i2g extraction.

Layout contract (see docs/container.md): information/, construction/,
conjecture/ and proofs/ are always present as directories;
construction/intergeo.xml is the only mandatory file; every proof attempt
lives in proofs/proof<prover><version><method>/.  Packing is byte
deterministic: fixed timestamps, lexicographically sorted entries, deflate
for files above 256 bytes and stored below.  This module writes the zip
headers itself, walks the central directory itself, and reads each entry
straight from the archive bytes.  A rewrite of an archive it read
(add_proof_attempt, strip_to_i2g) deflates only new files: each file it
carries keeps the deflate body it was read with.

The i2g container is recovered by dropping the three extra directories and
relocating construction/ content to the archive root; intergeo.xml bytes are
never touched by that operation.
"""

from __future__ import annotations

import re
import struct
import zlib
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from typing import NamedTuple

from .errors import CodecError, ContainerError, I2gatpError
from .model import (
    PROBLEM_NAME_RE,
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
    _has_identity,
    _read,
    _write_conjecture,
    _write_construction,
    _write_information,
    _write_proof_info,
)

# Unused here: every value is validated once before its _write_* call, and
# the layout walk reads each document once through _read.  Kept importable
# because bench/tracer.py swaps these names in this module.
from .xml_codec import parse_conjecture, parse_construction, parse_information, parse_proof_info  # noqa: F401
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
# What a container may hold, read or written (docs/container.md).  Within
# these caps no size, offset or count needs a zip64 field.
_MAX_ENTRIES = 10_000  # directories implied by a path included
_MAX_NAME_BYTES = 0xFFFF  # a name's UTF-8 length; its header field has 16 bits
_MAX_ENTRY_SIZE = 32 << 20  # bytes of one file
_MAX_TOTAL_SIZE = 128 << 20  # bytes of all files

# The zip structures.  The writer packs the first three with the fixed
# header fields of every entry (docs/container.md): versions 2.0, created on
# unix, 1980-01-01 00:00:00 in DOS form, no extra field.  The zip64 ones
# are read only: within the caps the writer needs none.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_END64_LOCATOR = struct.Struct("<4sLQL")
_END64_RECORD = struct.Struct("<4sQ2H2L4Q")
_EXTRA_FIELD = struct.Struct("<2H")  # tag and length; tag 1 holds zip64 values
_ZIP64_VALUE = struct.Struct("<Q")
_COMMENT_SEARCH = 1 << 16  # bytes searched for an end record that a comment follows
_MAX_EXTRACT_VERSION = 63  # 6.3, the newest version of the format
_VERSION = 20
_UNIX = 3
_DOS_DATE = 0x0021
_UTF8_NAME = 0x800
_FILE_ATTR = 0o644 << 16
_DIR_ATTR = (0o40755 << 16) | 0x10
_STORED, _DEFLATED = 0, 8
_UNSUPPORTED_FLAGS = 0x61  # encrypted (bit 0), patched (5), strong encryption (6)

# An entry is (path, bytes) for a file or (path ending in '/', None) for a
# directory.
Entry = tuple[str, bytes | None]
# A file entry's CRC-32 and raw deflate body, as read and as written again.
_Deflated = tuple[int, bytes]


# ---------------------------------------------------------------------------
# Deterministic zip I/O


def _write_zip(entries: list[Entry], deflated: dict[str, _Deflated] | None = None) -> bytes:
    """Deterministic archive of ``entries``, sorted by path; every parent
    directory of an entry gets its own directory entry.  What the reader
    would refuse (``_judge``) is not written.  A file named in ``deflated``
    (as ``_read_entries`` keeps them, of the same content) is written with
    the CRC-32 and deflate body it was read with, not deflated again."""

    carried = deflated or {}
    names = [name for name, _ in entries]
    dirs = _judge(names, [0 if data is None else len(data) for _, data in entries], "ArchiveTooLarge").dirs
    parts: list[bytes] = []
    central: list[bytes] = []
    offset = 0
    for name, data in sorted(entries + [(d, None) for d in dirs.difference(names)], key=lambda e: e[0]):
        raw = name.encode("utf-8")
        flags = 0 if raw.isascii() else _UTF8_NAME
        if data is None:
            method, crc, size, body, attr = _STORED, 0, 0, b"", _DIR_ATTR
        elif name in carried:
            method, (crc, body), size, attr = _DEFLATED, carried[name], len(data), _FILE_ATTR
        else:
            method, crc, size, body, attr = _STORED, zlib.crc32(data), len(data), data, _FILE_ATTR
            if size > _DEFLATE_THRESHOLD:
                # raw deflate is the zlib stream less its 2-byte header and
                # 4-byte Adler-32 trailer (RFC 1950)
                method, body = _DEFLATED, zlib.compress(data, _DEFLATE_LEVEL)[2:-4]
        fields = (flags, method, 0, _DOS_DATE, crc, len(body), size, len(raw))
        parts += (_LOCAL_HEADER.pack(b"PK\x03\x04", _VERSION, 0, *fields, 0), raw, body)
        central.append(_CENTRAL_HEADER.pack(b"PK\x01\x02", _VERSION, _UNIX, _VERSION, 0, *fields, 0, 0, 0, 0, attr, offset) + raw)
        offset += _LOCAL_HEADER.size + len(raw) + len(body)
    count = len(central)
    central.append(_END_RECORD.pack(b"PK\x05\x06", 0, 0, count, count, sum(map(len, central)), offset, 0))
    return b"".join(parts + central)


def read_container_entries(data: bytes) -> list[Entry]:
    """Raw (path, bytes) entries of a container; directory entries carry
    None.  Before any entry is inflated, an unsafe path is ``BadPath``, a
    path given twice or held by a file and a directory ``DuplicateEntry``,
    and a container past a cap (docs/container.md) ``MalformedZip``."""

    return _read_entries(data)[0]


def _read_entries(data: bytes) -> tuple[list[Entry], _Judgement, dict[str, _Deflated]]:
    """read_container_entries, with the judgement of its names, so that the
    layout walk need not find their directories again, and by name the
    files a writer may carry as they were read: each deflated, of more than
    ``_DEFLATE_THRESHOLD`` bytes, and a body that its stream fills exactly."""

    central, central_start = _central_directory(data)
    names = _safe([entry[0] for entry in central])
    judgement = _judge(names, [entry[5] for entry in central], "MalformedZip")
    # an entry's data must end by the next local header, or by the central
    # directory for the last one; of entries sharing an offset, all but the
    # first in central-directory order end where they start, so they overlap
    ends = [0] * len(central)
    end = central_start
    for i in sorted(range(len(central)), key=lambda i: central[i][6], reverse=True):
        ends[i] = end
        end = central[i][6]
    entries: list[Entry] = []
    deflated: dict[str, _Deflated] = {}
    for name, entry, end in zip(names, central, ends):
        if name.endswith("/"):
            entries.append((name, None))
            continue
        content, body = _entry_data(data, entry, end)
        entries.append((name, content))
        if body is not None:
            deflated[name] = (entry[3], body)
    return entries, judgement, deflated


def _safe(names: list[str]) -> list[str]:
    """``names`` when each is a safe relative path (a directory's ending in '/'); else ``BadPath``."""

    for name in names:
        if not is_safe_relative_path(name[:-1] if name.endswith("/") else name):
            raise ContainerError("BadPath", f"unsafe entry path {name!r}")
    return names


# A central header as the reader keeps it: (name, flags, method, CRC-32,
# compressed size, size, local header offset).
_CentralEntry = tuple[str, int, int, int, int, int, int]


def _central_directory(data: bytes) -> tuple[list[_CentralEntry], int]:
    """The central directory's entries, and its start.  It is found as
    ``zipfile`` finds it: by the end record in the last 22 bytes, or else
    by the last one in the 64 KiB before (an archive comment follows it);
    by the zip64 end record before that, when its locator and it are
    there; and every offset is shifted by the bytes prepended to the
    archive.  Refused as ``MalformedZip``: an end record that is missing or
    cut short, a locator naming more disks than one, a directory starting
    before the archive, more entries counted than the caps allow (before
    any central header is read) or than there are headers, a header that is
    cut short or has the wrong signature, a version past 6.3, a name not in
    UTF-8 under flag 0x800, and a corrupt extra field."""

    end = len(data) - _END_RECORD.size
    if end < 0 or not (data.startswith(b"PK\x05\x06", end) and data.endswith(b"\0\0")):
        end = data.rfind(b"PK\x05\x06", max(end - _COMMENT_SEARCH, 0))
        if end < 0:
            raise ContainerError("MalformedZip", "no end of central directory record")
        if end + _END_RECORD.size > len(data):
            raise ContainerError("MalformedZip", "end of central directory record cut short")
    _, _, _, _, count, size, offset, _ = _END_RECORD.unpack_from(data, end)
    directory_end = end
    # zipfile reads the zip64 records at these places, clamped to the
    # archive's start in an archive too short to hold them
    locator = max(end - _END64_LOCATOR.size, 0)
    signature, disk, _, disks = _END64_LOCATOR.unpack_from(data, locator)
    if signature == b"PK\x06\x07":
        if disk != 0 or disks > 1:
            raise ContainerError("MalformedZip", "archive spans more than one disk")
        record = max(end - _END64_LOCATOR.size - _END64_RECORD.size, 0)
        if record + _END64_RECORD.size <= len(data):
            record64 = _END64_RECORD.unpack_from(data, record)
            if record64[0] == b"PK\x06\x06":
                count, size, offset = record64[7:]
                directory_end = end - _END64_LOCATOR.size - _END64_RECORD.size
    if count > _MAX_ENTRIES:
        raise ContainerError("MalformedZip", f"{count} entries with their directories, past the {_MAX_ENTRIES} allowed")
    start = directory_end - size
    if start < 0:
        raise ContainerError("MalformedZip", f"central directory of {size} bytes starts before the archive")
    shift = start - offset  # bytes prepended to the archive
    entries: list[_CentralEntry] = []
    unpack = _CENTRAL_HEADER.unpack_from
    pos = start
    while pos < directory_end:
        if len(entries) == count:
            raise ContainerError("MalformedZip", f"central directory holds more than the {count} entries its end record counts")
        if pos + _CENTRAL_HEADER.size > directory_end:
            raise ContainerError("MalformedZip", f"central directory cut short after {len(entries)} entries")
        (signature, _, _, version, _, flags, method, _, _, crc, compressed, file_size,
         name_len, extra_len, comment_len, _, _, _, header) = unpack(data, pos)  # fmt: skip
        if signature != b"PK\x01\x02":
            raise ContainerError("MalformedZip", f"bad central header signature at offset {pos}")
        if version > _MAX_EXTRACT_VERSION:
            raise ContainerError("MalformedZip", f"zip version {version / 10:.1f} is not supported")
        name_start = pos + _CENTRAL_HEADER.size
        extra_start = name_start + name_len
        pos = extra_start + extra_len + comment_len
        if pos > directory_end:
            raise ContainerError("MalformedZip", f"central header at offset {name_start - _CENTRAL_HEADER.size} cut short")
        raw = data[name_start:extra_start]
        name = _entry_name(raw, flags)
        if name is None:
            raise ContainerError("MalformedZip", f"entry name {raw!r} is flagged UTF-8 but is not")
        if extra_len:
            compressed, file_size, header = _zip64_values(data, extra_start, extra_start + extra_len, compressed, file_size, header)
        entries.append((name, flags, method, crc, compressed, file_size, header + shift))
    if len(entries) != count:
        raise ContainerError("MalformedZip", f"central directory holds {len(entries)} entries where its end record counts {count}")
    return entries, start


def _entry_name(raw: bytes, flags: int) -> str | None:
    """An entry name as a header holds it: ASCII as it is, else UTF-8 under
    flag 0x800 or cp437; None for a name flagged UTF-8 that is not."""

    if raw.isascii():
        return raw.decode("ascii")
    try:
        return raw.decode("utf-8" if flags & _UTF8_NAME else "cp437")
    except UnicodeDecodeError:
        return None


def _zip64_values(data: bytes, pos: int, stop: int, compressed: int, size: int, offset: int) -> tuple[int, int, int]:
    """A central header's compressed size, size and local header offset,
    each whose 32 bits are all set taken from the zip64 extra field among
    the extra fields from ``pos`` to ``stop``, as ``zipfile`` takes them."""

    while pos + _EXTRA_FIELD.size <= stop:
        tag, length = _EXTRA_FIELD.unpack_from(data, pos)
        pos += _EXTRA_FIELD.size
        if pos + length > stop:
            raise ContainerError("MalformedZip", f"corrupt extra field {tag:04x} of {length} bytes")
        if tag == 1:
            wanted = (size in (0xFFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF), compressed == 0xFFFF_FFFF, offset == 0xFFFF_FFFF)
            if sum(wanted) * _ZIP64_VALUE.size > length:
                raise ContainerError("MalformedZip", f"zip64 extra field of {length} bytes is too short")
            values = [_ZIP64_VALUE.unpack_from(data, pos + i * _ZIP64_VALUE.size)[0] for i in range(sum(wanted))]
            if wanted[0]:
                size = values.pop(0)
            if wanted[1]:
                compressed = values.pop(0)
            if wanted[2]:
                offset = values.pop(0)
        pos += length
    return compressed, size, offset


def _entry_data(data: bytes, entry: _CentralEntry, end: int) -> tuple[bytes, bytes | None]:
    """The content of a file entry, read from its local header on; it must
    be stored or deflated, end where its sizes say and by offset ``end``,
    and match its CRC-32.  With it, the entry's deflate body when a writer
    may carry it as it is (``_read_entries``), else None."""

    name, flags, method, crc, compressed, size, start = entry

    def malformed(reason: str) -> ContainerError:
        return ContainerError("MalformedZip", f"cannot read entry {name!r}: {reason}")

    if start < 0 or start + _LOCAL_HEADER.size > len(data):
        raise malformed(f"no local header at offset {start}")
    signature, _, _, local_flags, _, _, _, _, _, _, name_len, extra_len = _LOCAL_HEADER.unpack_from(data, start)
    if signature != b"PK\x03\x04":
        raise malformed("bad local header signature")
    start += _LOCAL_HEADER.size
    if _entry_name(data[start : start + name_len], local_flags) != name:
        raise malformed("local header names another entry")
    if flags & _UNSUPPORTED_FLAGS:
        raise malformed("encrypted or patched")
    start += name_len + extra_len
    if start + compressed > end:
        raise malformed("overlaps the next entry or the central directory")
    body = data[start : start + compressed]
    if method == _STORED:
        content, carried = body, None
    elif method == _DEFLATED:
        inflater = zlib.decompressobj(-15)
        try:
            content = inflater.decompress(body, size + 1)
        except zlib.error as exc:
            raise malformed(str(exc)) from exc
        if not inflater.eof:
            raise malformed("deflate stream does not end within the declared size")
        # bytes after the stream's end are read past, but not written again
        carried = body if size > _DEFLATE_THRESHOLD and not inflater.unused_data else None
    else:
        raise malformed(f"unsupported compression method {method}")
    if len(content) != size:
        raise malformed(f"{len(content)} bytes where {size} are declared")
    if zlib.crc32(content) != crc:
        raise malformed("bad CRC-32")
    return content, carried


class _Judgement(NamedTuple):
    dirs: set[str]
    faults: list[Violation]


def _judge(names: list[str], sizes: list[int] | None = None, too_large: str = "", refuse: bool = True) -> _Judgement:
    """What a container may hold, judged over its entry names (a directory's
    ending in '/'): every directory that the names list or imply, and as
    ``DuplicateEntry`` the names given more than once, then the files that
    are also directories (no file system holds both), each in the order
    that validate reports them; with ``refuse`` the first is raised.  Given
    the entries' declared ``sizes``, the caps apply first: past one,
    ``ContainerError`` with code ``too_large``."""

    # a name of at most a quarter of the cap in characters fits in UTF-8
    if sizes is not None and max(map(len, names), default=0) > _MAX_NAME_BYTES // 4:
        for name in names:
            if len(name.encode("utf-8", "surrogatepass")) > _MAX_NAME_BYTES:
                raise ContainerError(too_large, f"entry name {name[:40]!r}... is longer than {_MAX_NAME_BYTES} bytes")
    # files of at most a file's cap in all are within both size caps
    if sizes is not None and sum(sizes) > _MAX_ENTRY_SIZE:
        for name, size, total in zip(names, sizes, accumulate(sizes)):
            if size > _MAX_ENTRY_SIZE:
                raise ContainerError(too_large, f"entry {name!r} holds {size} bytes, past the {_MAX_ENTRY_SIZE} a file may hold")
            if total > _MAX_TOTAL_SIZE:
                raise ContainerError(too_large, f"entry {name!r} takes the files past the {_MAX_TOTAL_SIZE} bytes allowed")
    dirs: set[str] = set()
    for name in names:
        # the name's own directory, then its parents up to the first one seen
        path = name[: name.rfind("/") + 1]
        while path and path not in dirs:
            dirs.add(path)
            path = path[: path.rfind("/", 0, -1) + 1]
    unique = set(names)
    if sizes is not None and len(names) + len(dirs) > _MAX_ENTRIES and len(unique | dirs) > _MAX_ENTRIES:
        raise ContainerError(too_large, f"{len(unique | dirs)} entries with their directories, past the {_MAX_ENTRIES} allowed")
    faults: list[Violation] = []
    if len(unique) < len(names):
        given = Counter(names)
        faults += [Violation("DuplicateEntry", n, f"entry {n!r} is given more than once") for n in given if given[n] > 1]
    clashes = sorted(p for p in unique.intersection([d[:-1] for d in dirs]) if not p.endswith("/"))
    faults += [Violation("DuplicateEntry", p, f"entry {p!r} is both a file and a directory") for p in clashes]
    if refuse and faults:
        raise ContainerError("DuplicateEntry", faults[0].message)
    return _Judgement(dirs, faults)


# ---------------------------------------------------------------------------
# Problem <-> entries


def _refuse_invalid(what: str, violations: list[Violation]) -> None:
    if violations:
        first = violations[0]
        message = f"{what} has {len(violations)} violation(s); first: {first.code} at {first.path}"
        raise ContainerError("InvalidProblem", message, violations)


def entries_from_problem(problem: Problem) -> list[Entry]:
    """Container entries of a valid problem, in canonical order; raises
    ``InvalidProblem`` with every violation otherwise, and refuses what
    ``pack`` would not write."""

    entries = _problem_entries(problem)
    _judge([name for name, _ in entries], [0 if data is None else len(data) for _, data in entries], "ArchiveTooLarge")
    return entries


def _problem_entries(problem: Problem) -> list[Entry]:
    """entries_from_problem, not yet judged."""

    _refuse_invalid("problem", validate_problem(problem))
    entries: list[Entry] = [(d, None) for d in MANDATORY_DIRS]
    if problem.info is not None:
        entries.append((INFORMATION_PATH, _write_information(problem.info)))
    entries.append((INTERGEO_PATH, _write_construction(problem.construction)))
    if problem.conjecture is not None:
        entries.append((CONJECTURE_PATH, _write_conjecture(problem.conjecture)))
    for attempt in problem.proofs:
        base = f"proofs/{attempt.directory_name}/"
        entries.append((base + PROOF_INFO_NAME, _write_proof_info(attempt)))
        entries.extend((base + name, data) for name, data in attempt.outputs)
    for section in (problem.resources, problem.metadata, problem.private):
        entries.extend(section)
    return sorted(entries, key=lambda e: e[0])


class _Layout(NamedTuple):
    files: dict[str, bytes]
    dirs: set[str]
    proof_dirs: dict[str, dict[str, bytes]]
    attempts: dict[str, dict[str, bytes]]
    faults: list[Violation]


def _sort_entries(entries: list[Entry], judgement: _Judgement) -> _Layout:
    """The one reading of the container layout, given the judgement of the
    entries' names: the files by path, of a path given twice the last; the
    directories; for each directory directly under proofs/, by name and in
    name order, its files by their path inside it; the attempts among those
    directories (named by ``PROOF_DIR_RE``, with a proofInfo.xml directly
    inside); and the judgement's faults."""

    files = {name: data for name, data in entries if data is not None}
    dirs = judgement.dirs
    proof_dirs = {d[len("proofs/") : -1]: {} for d in sorted(dirs) if d.startswith("proofs/") and d.count("/") == 2}
    for name, data in files.items():
        if name.startswith("proofs/"):
            dirname, _, inner = name[len("proofs/") :].partition("/")
            if inner:
                proof_dirs[dirname][inner] = data
    attempts = {d: group for d, group in proof_dirs.items() if PROOF_DIR_RE.match(d) and PROOF_INFO_NAME in group}
    return _Layout(files, dirs, proof_dirs, attempts, judgement.faults)


def problem_from_entries(entries: list[Entry]) -> Problem:
    """Build a problem from container entries (inverse of
    :func:`entries_from_problem` up to canonical order).

    Lenient about extras: unknown files under known directories and unknown
    top-level entries are carried as resources; proof directories that hold
    no attempt are carried file-by-file.  Strict about the rest: what
    validate reports is refused, but for what docs/container.md forgives
    under "Reading".
    """

    return _problem_from_layout(_sort_entries(entries, _judge(_safe([name for name, _ in entries]))))


def _problem_from_layout(layout: _Layout) -> Problem:
    """problem_from_entries over a layout judged sound: the walk's first error, or the problem it read."""

    _violations, errors, (construction, info, conjecture, attempts, carried) = _validate_layout(layout, False)
    if errors:
        raise errors[0]
    resources: list[tuple[str, bytes]] = []
    sections: dict[str, list[tuple[str, bytes]]] = {"metadata/": [], "private/": []}
    for path, data in carried.items():
        sections.get(path[: path.find("/") + 1], resources).append((path, data))
    # canonicalize_problem sorts the attempts, their outputs and the sections
    return canonicalize_problem(
        Problem(
            construction=construction,
            info=info,
            conjecture=conjecture,
            proofs=tuple(replace(attempt, outputs=tuple(outputs.items())) for attempt, outputs in attempts),
            resources=tuple(resources),
            metadata=tuple(sections["metadata/"]),
            private=tuple(sections["private/"]),
        )
    )


# ---------------------------------------------------------------------------
# Public container operations


def pack(problem: Problem) -> bytes:
    """Pack a valid problem into deterministic zip bytes."""

    return _write_zip(_problem_entries(problem))


def suggested_filename(problem: Problem, name: str | None = None) -> str:
    """Conventional archive filename problem<name>.zip, for a name PROBLEM_NAME_RE matches."""

    if name is None:
        if problem.info is None:
            raise ValueError("problem has no information record; pass an explicit name")
        name = problem.info.name
    if not PROBLEM_NAME_RE.match(name):
        raise ValueError(f"invalid problem name {name!r}")
    return f"problem{name}.zip"


def unpack(data: bytes) -> Problem:
    """Read a container back into a problem (canonical order)."""

    entries, judgement, _ = _read_entries(data)
    return _problem_from_layout(_sort_entries(entries, judgement))


def canonicalize_container(data: bytes) -> bytes:
    """pack-after-unpack; the identity on canonically packed containers."""

    return pack(unpack(data))


def strip_to_i2g(data: bytes) -> bytes:
    """Drop information/, conjecture/ and proofs/; relocate construction/
    content to the archive root (the i2g layout).  File bytes, in particular
    intergeo.xml, are carried unchanged; idempotent.  Two entries that
    relocate to one path (``construction/a`` and a root ``a``) are
    ``DuplicateEntry`` naming both.

    Every entry is read and checked in full first.  Each relocated file
    keeps its deflate body as add_proof_attempt keeps it, so a body that
    another deflater wrote is carried as it is."""

    entries, _, deflated = _read_entries(data)
    files: dict[str, bytes] = {}
    sources: dict[str, str] = {}
    carried: dict[str, _Deflated] = {}
    for name, content in entries:
        if content is None or name.startswith(EXTENSION_DIRS):
            continue
        target = name[len("construction/") :] if name.startswith("construction/") else name
        if target in sources:
            raise ContainerError("DuplicateEntry", f"entries {sources[target]!r} and {name!r} both become {target!r}")
        sources[target] = name
        files[target] = content
        if name in deflated:
            carried[target] = deflated[name]
    if "intergeo.xml" not in files:
        raise ContainerError("MissingIntergeo", "container lacks construction/intergeo.xml")
    return _write_zip(list(files.items()), carried)


def add_proof_attempt(data: bytes, attempt: ProofAttempt) -> bytes:
    """Insert one proof attempt directory; every other entry's content is
    carried unchanged (the archive is rewritten in canonical order).

    Every entry is read and checked in full first.  Only the new attempt's
    files are deflated: a deflated file of more than 256 bytes keeps the
    deflate body it was read with, so adding to a packed container gives the
    bytes of packing the problem with the attempt, and a body another
    deflater wrote (another level, another tool) is carried as it is.  A
    stored file of more than 256 bytes, a deflated one of 256 bytes or
    fewer, and a deflated body with bytes after its stream's end are
    written as pack writes them."""

    _refuse_invalid("attempt", validate_attempt(attempt))
    entries, judgement, deflated = _read_entries(data)
    layout = _sort_entries(entries, judgement)
    new_dir = f"proofs/{attempt.directory_name}/"
    if attempt.directory_name in layout.proof_dirs:
        raise ContainerError("DuplicateAttempt", f"directory {new_dir!r} already present")
    for group in layout.attempts.values():
        # an invalid attempt still has an identity; only an unreadable one has none
        if _has_identity(group[PROOF_INFO_NAME], attempt.identity):
            identity = f"{attempt.prover}/{attempt.version}/{attempt.method}"
            raise ContainerError("DuplicateAttempt", f"attempt {identity} already present")
    added: list[Entry] = [(new_dir + PROOF_INFO_NAME, _write_proof_info(attempt))]
    added.extend((new_dir + name, out_data) for name, out_data in attempt.outputs)
    return _write_zip(entries + added, deflated)


# ---------------------------------------------------------------------------
# Container validation

_KNOWN_TOP_DIRS = (*MANDATORY_DIRS, "metadata/", "resources/", "private/")


def _read_entry(out: list[Violation], errors: list[I2gatpError], kind: DocumentKind, entry: str, data: bytes, construction=None):
    """The value read from one entry (None if unreadable); its violations are
    appended to ``out`` located at the entry, those refused to ``errors``."""

    value, violations, refused = _read(kind, data, construction)
    out.extend(Violation(v.code, f"{entry}{v.path}", v.message) for v in violations)
    if refused:
        errors.append(CodecError(refused))
    return value


def validate_container(data: bytes, i2g: bool = False) -> list[Violation]:
    """Manifest-level plus per-document violations, entry paths in locators.

    With ``i2g`` the stripped layout is checked instead: intergeo.xml at the
    root, none of the three extension directories.
    """

    try:
        entries, judgement, _ = _read_entries(data)
    except ContainerError as exc:
        return [Violation(exc.code, "/", str(exc))]
    return _validate_layout(_sort_entries(entries, judgement), i2g)[0]


def validate_entries(entries: list[Entry], i2g: bool = False) -> list[Violation]:
    """validate_container over already-extracted entries (e.g. a directory
    tree mirroring the container layout), whose paths no zip reader has
    checked; a path given twice, or held by a file and a directory, is
    ``DuplicateEntry``."""

    for name, _content in entries:
        if not is_safe_relative_path(name[:-1] if name.endswith("/") else name):
            return [Violation("BadPath", name, f"unsafe entry path {name!r}")]
    return _validate_layout(_sort_entries(entries, _judge([name for name, _ in entries], refuse=False)), i2g)[0]


def _validate_layout(layout: _Layout, i2g: bool) -> tuple[list[Violation], list[I2gatpError], tuple]:
    """The one walk of a layout of safe paths, which it uses up: every
    violation, located at its entry; the errors unpack raises, in walk order;
    and the values read: construction, information, conjecture, each attempt
    with its outputs by inner path, and the files left to carry."""

    files = layout.files
    out = list(layout.faults)
    errors: list[I2gatpError] = []

    if i2g:
        if "intergeo.xml" not in files:
            out.append(Violation("MissingIntergeo", "intergeo.xml", "i2g container lacks a root intergeo.xml"))
        else:
            _read_entry(out, errors, DocumentKind.CONSTRUCTION, "intergeo.xml", files["intergeo.xml"])
        for name in sorted(files) + sorted(layout.dirs):
            if name.startswith(EXTENSION_DIRS):
                out.append(Violation("UnexpectedEntry", name, "extension directories must be stripped from an i2g container"))
        return out, errors, (None, None, None, [], files)

    for d in MANDATORY_DIRS:
        if d not in layout.dirs:
            out.append(Violation("MissingMandatoryDir", d, f"mandatory directory {d!r} is absent"))
    construction = info = conjecture = None
    if INTERGEO_PATH not in files:
        out.append(Violation("MissingIntergeo", INTERGEO_PATH, "the construction document is mandatory"))
        errors.append(ContainerError("MissingIntergeo", f"container lacks {INTERGEO_PATH}"))
    else:
        found = len(out)
        construction = _read_entry(out, errors, DocumentKind.CONSTRUCTION, INTERGEO_PATH, files.pop(INTERGEO_PATH))
        if len(out) > found:
            construction = None  # so its faults do not return as unresolved conjecture ids
    if INFORMATION_PATH in files:
        info = _read_entry(out, errors, DocumentKind.INFORMATION, INFORMATION_PATH, files.pop(INFORMATION_PATH))
    if CONJECTURE_PATH in files:
        conjecture = _read_entry(out, errors, DocumentKind.CONJECTURE, CONJECTURE_PATH, files.pop(CONJECTURE_PATH), construction)

    attempts: list[tuple[ProofAttempt, dict[str, bytes]]] = []
    triples_seen: set[tuple[str, str, str]] = set()
    for dirname, group in layout.proof_dirs.items():
        dir_path = f"proofs/{dirname}/"
        if not PROOF_DIR_RE.match(dirname):
            out.append(Violation("BadProofDirName", dir_path, "proof directories are named proof<GATP><Version><Method>"))
            continue
        if dirname not in layout.attempts:
            continue  # proofInfo.xml itself is optional
        for inner in group:
            del files[dir_path + inner]
        info_path = dir_path + PROOF_INFO_NAME
        attempt = _read_entry(out, errors, DocumentKind.PROOF_INFO, info_path, group.pop(PROOF_INFO_NAME))
        if attempt is None:
            continue
        if attempt.identity in triples_seen:
            message = f"attempt {attempt.prover}/{attempt.version}/{attempt.method} appears in more than one directory"
            out.append(Violation("DuplicateAttempt", info_path, message))
            errors.append(ContainerError("DuplicateAttempt", message))
        triples_seen.add(attempt.identity)
        attempts.append((attempt, group))
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
    return out, errors, (construction, info, conjecture, attempts, files)
