"""Zip container packing, unpacking, validation and i2g extraction.

Layout contract (see docs/container.md): information/, construction/,
conjecture/ and proofs/ are always present as directories;
construction/intergeo.xml is the only mandatory file; every proof attempt
lives in proofs/proof<prover><version><method>/.  Packing is byte
deterministic: fixed timestamps, lexicographically sorted entries, deflate
for files above 256 bytes and stored below.

The i2g container is recovered by dropping the three extra directories and
relocating construction/ content to the archive root; intergeo.xml bytes are
never touched by that operation.
"""

from __future__ import annotations

import io
import re
import zipfile
from dataclasses import replace

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

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_DEFLATE_THRESHOLD = 256  # bytes; larger files are deflated, smaller stored
_DEFLATE_LEVEL = 6

# An entry is (path, bytes) for a file or (path ending in '/', None) for a
# directory.
Entry = tuple[str, bytes | None]


# ---------------------------------------------------------------------------
# Deterministic zip I/O


def _write_zip(entries: list[Entry]) -> bytes:
    """Deterministic archive of ``entries``, sorted by path; every parent
    directory of an entry gets its own directory entry."""

    names = {name for name, _ in entries}
    missing = {d for name in names for d in _parent_dirs(name)} - names
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in sorted(entries + [(d, None) for d in missing], key=lambda e: e[0]):
            zi = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            zi.create_system = 3  # unix, pinned for cross-platform identical bytes
            if data is None:
                zi.external_attr = (0o40755 << 16) | 0x10
                zf.writestr(zi, b"", compress_type=zipfile.ZIP_STORED)
            else:
                zi.external_attr = 0o644 << 16
                if len(data) > _DEFLATE_THRESHOLD:
                    zf.writestr(zi, data, compress_type=zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL)
                else:
                    zf.writestr(zi, data, compress_type=zipfile.ZIP_STORED)
    return buf.getvalue()


def read_container_entries(data: bytes) -> list[Entry]:
    """Raw (path, bytes) entries of a container, path-checked; directory
    entries carry None."""

    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except (zipfile.BadZipFile, ValueError) as exc:
        raise ContainerError("MalformedZip", str(exc)) from exc
    entries: list[Entry] = []
    seen: set[str] = set()
    with zf:
        for info in zf.infolist():
            name = info.filename
            check = name[:-1] if name.endswith("/") else name
            if not is_safe_relative_path(check):
                raise ContainerError("BadPath", f"unsafe entry path {name!r}")
            if name in seen:
                raise ContainerError("DuplicateEntry", f"duplicate entry {name!r}")
            seen.add(name)
            if info.is_dir():
                entries.append((name, None))
            else:
                with zf.open(info) as fh:
                    entries.append((name, fh.read()))
    return entries


def _parent_dirs(path: str) -> list[str]:
    parts = path.split("/")[:-1]
    return [("/".join(parts[: i + 1]) + "/") for i in range(len(parts))]


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


def problem_from_entries(entries: list[Entry]) -> Problem:
    """Build a problem from container entries (inverse of
    :func:`entries_from_problem` up to canonical order).

    Lenient about extras: unknown files under known directories and unknown
    top-level entries are carried as resources; proof directories without a
    proofInfo.xml are carried file-by-file.  Strict about the essentials:
    construction/intergeo.xml must exist and nested documents must parse.
    """

    files: dict[str, bytes] = {}
    for name, data in entries:
        if data is None:
            continue
        if name in files:
            raise ContainerError("DuplicateEntry", f"duplicate entry {name!r}")
        files[name] = data

    if INTERGEO_PATH not in files:
        raise ContainerError("MissingIntergeo", f"container lacks {INTERGEO_PATH}")

    construction = parse_construction(files.pop(INTERGEO_PATH))
    info = None
    if INFORMATION_PATH in files:
        info = parse_information(files.pop(INFORMATION_PATH))
    conjecture = None
    if CONJECTURE_PATH in files:
        conjecture = parse_conjecture(files.pop(CONJECTURE_PATH))

    proof_groups: dict[str, dict[str, bytes]] = {}
    resources: list[tuple[str, bytes]] = []
    metadata: list[tuple[str, bytes]] = []
    private: list[tuple[str, bytes]] = []
    for path in sorted(files):
        data = files[path]
        if path.startswith("metadata/"):
            metadata.append((path, data))
        elif path.startswith("private/"):
            private.append((path, data))
        elif path.startswith("proofs/"):
            rest = path[len("proofs/") :]
            dirname, _, inner = rest.partition("/")
            if inner and PROOF_DIR_RE.match(dirname):
                proof_groups.setdefault(dirname, {})[inner] = data
            else:
                resources.append((path, data))
        else:
            resources.append((path, data))

    proofs: list[ProofAttempt] = []
    for dirname in sorted(proof_groups):
        group = proof_groups[dirname]
        if PROOF_INFO_NAME not in group:
            for inner in sorted(group):
                resources.append((f"proofs/{dirname}/{inner}", group[inner]))
            continue
        attempt = parse_proof_info(group.pop(PROOF_INFO_NAME))
        proofs.append(replace(attempt, outputs=tuple((inner, group[inner]) for inner in sorted(group))))

    return canonicalize_problem(
        Problem(
            construction=construction,
            info=info,
            conjecture=conjecture,
            proofs=tuple(proofs),
            resources=tuple(sorted(resources)),
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
    intergeo.xml, are carried unchanged; idempotent."""

    entries = read_container_entries(data)
    files: dict[str, bytes] = {}
    has_intergeo = False
    for name, content in entries:
        if content is None:
            continue
        if name.startswith(EXTENSION_DIRS):
            continue
        if name.startswith("construction/"):
            name = name[len("construction/") :]
        if name == "intergeo.xml":
            has_intergeo = True
        files[name] = content
    if not has_intergeo:
        raise ContainerError("MissingIntergeo", "container lacks construction/intergeo.xml")
    return _write_zip(list(files.items()))


def add_proof_attempt(data: bytes, attempt: ProofAttempt) -> bytes:
    """Insert one proof attempt directory; every other entry's content is
    carried unchanged (the archive is rewritten canonically)."""

    _refuse_invalid("attempt", validate_attempt(attempt))
    entries = read_container_entries(data)
    new_dir = f"proofs/{attempt.directory_name}/"
    if any(name.startswith(new_dir) for name, _ in entries):
        raise ContainerError("DuplicateAttempt", f"directory {new_dir!r} already present")
    for name, content in entries:
        if content is None or not name.startswith("proofs/") or not name.endswith("/" + PROOF_INFO_NAME):
            continue
        # an invalid attempt still has an identity; only an unreadable one has none
        other = _read(DocumentKind.PROOF_INFO, content)[0]
        if other is not None and other.identity == attempt.identity:
            raise ContainerError(
                "DuplicateAttempt",
                f"attempt {attempt.prover}/{attempt.version}/{attempt.method} already present",
            )
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
    tree mirroring the container layout)."""

    out: list[Violation] = []
    for name, content in entries:
        check = name[:-1] if name.endswith("/") else name
        if not is_safe_relative_path(check):
            out.append(Violation("BadPath", name, f"unsafe entry path {name!r}"))
            return out

    files: dict[str, bytes] = {}
    prefixes: set[str] = set()
    for name, content in entries:
        if content is None:
            prefixes.add(name)
        else:
            files[name] = content
            for parent in _parent_dirs(name):
                prefixes.add(parent)

    if i2g:
        if "intergeo.xml" not in files:
            out.append(Violation("MissingIntergeo", "intergeo.xml", "i2g container lacks a root intergeo.xml"))
        else:
            _read_entry(out, DocumentKind.CONSTRUCTION, "intergeo.xml", files["intergeo.xml"])
        for name in sorted(files) + sorted(prefixes):
            if name.startswith(EXTENSION_DIRS):
                out.append(Violation("UnexpectedEntry", name, "extension directories must be stripped from an i2g container"))
        return out

    for d in MANDATORY_DIRS:
        if d not in prefixes:
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

    proof_dirs = sorted(
        {p[len("proofs/") :].split("/", 1)[0] for p in (set(files) | prefixes) if p.startswith("proofs/") and p != "proofs/"}
    )
    triples_seen: set[tuple[str, str, str]] = set()
    for dirname in proof_dirs:
        dir_path = f"proofs/{dirname}/"
        if not PROOF_DIR_RE.match(dirname):
            out.append(Violation("BadProofDirName", dir_path, "proof directories are named proof<GATP><Version><Method>"))
            continue
        info_path = dir_path + PROOF_INFO_NAME
        if info_path not in files:
            continue  # proofInfo.xml itself is optional
        attempt = _read_entry(out, DocumentKind.PROOF_INFO, info_path, files[info_path])
        if attempt is None:
            continue
        if attempt.identity in triples_seen:
            out.append(
                Violation(
                    "DuplicateAttempt",
                    info_path,
                    f"attempt {attempt.prover}/{attempt.version}/{attempt.method} appears in more than one directory",
                )
            )
        triples_seen.add(attempt.identity)
        if attempt.directory_name != dirname:
            out.append(
                Violation(
                    "DirNameMismatch",
                    dir_path,
                    f"directory named {dirname!r} but proofInfo.xml identifies {attempt.directory_name!r}",
                )
            )

    for name in sorted(files):
        top = name.split("/", 1)[0] + "/"
        if top not in _KNOWN_TOP_DIRS and "/" in name:
            out.append(Violation("UnknownEntry", name, f"unknown top-level directory {top!r}"))
        elif "/" not in name:
            out.append(Violation("UnknownEntry", name, "loose file at container root"))
        elif top in ("information/", "conjecture/") and name not in (INFORMATION_PATH, CONJECTURE_PATH):
            out.append(Violation("UnknownEntry", name, f"unexpected file under {top}"))
    return out
