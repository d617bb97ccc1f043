"""Domain model of the i2gatp format.

One problem corresponds to one container and aggregates generic information,
a geometric construction (a straight-line program plus a static initial
instance), an optional conjecture, and any number of proof attempts.  All
types are immutable values; nothing in this module does I/O.

Validation never raises: :func:`validate_problem` returns every invariant
violation as data, each with a stable machine-readable code drawn from the
closed catalogue in ``VIOLATION_CODES`` (documented in docs/violations.md).
"""

from __future__ import annotations

import enum
import math
import re
import xml.parsers.expat
from dataclasses import dataclass, replace

from .errors import CodecError

__all__ = [
    "BibEntry",
    "Conjecture",
    "Collinear",
    "Const",
    "Constraint",
    "ConstraintKind",
    "CONSTRAINT_SIGNATURES",
    "Construction",
    "ELEMENT_COORDS",
    "ElementInstance",
    "Equal",
    "GeoKind",
    "Harmonic",
    "Midpoint",
    "Mult",
    "NotEqual",
    "NotParallel",
    "Parallel",
    "Perpendicular",
    "Platform",
    "Plus",
    "Predicate",
    "Problem",
    "ProblemInfo",
    "ProofAttempt",
    "ProofLimits",
    "ProofMeasures",
    "ProofStatus",
    "SameLength",
    "SegmentLength",
    "SegmentRatio",
    "Term",
    "VIOLATION_CODES",
    "Violation",
    "canonicalize_problem",
    "predicate_point_ids",
    "term_point_ids",
    "validate_attempt",
    "validate_conjecture",
    "validate_construction",
    "validate_info",
    "validate_problem",
]

# Container filename fragment: problem<name>.zip
PROBLEM_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")
# prover/version/method compose a proofs/ directory name
ATTEMPT_FIELD_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
# Element ids appear whitespace-separated in XML text and DSL statements
ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*\Z")
# Reals as conjecture.xml, intergeo.xml, proofInfo.xml and the DSL read them
# (the ``number`` production of docs/dsl.md)
NUMBER_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\Z")
# A character of free text that no XML 1.0 document can carry: one outside
# the Char production, which is a C0 control but tab, LF and CR, a lone
# surrogate, U+FFFE or U+FFFF
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# What expat raises for a document it cannot read: a syntax error, an
# encoding it does not know (LookupError) or a multi-byte one it does not
# support (ValueError), each named by the XML declaration; the readers also
# raise ValueError past MAX_XML_DEPTH or MAX_XML_ELEMENTS
XML_READ_ERRORS = (xml.parsers.expat.ExpatError, LookupError, ValueError)


def format_number(x: float) -> str:
    """Shortest round-trip decimal form of a real, as every format writes it.

    The float coercion keeps hand-built values with int coordinates
    byte-identical to parsed ones."""

    return repr(float(x))


class GeoKind(enum.Enum):
    """Kinds of geometric objects the supported constraint subset produces."""

    POINT = "point"
    LINE = "line"
    CIRCLE = "circle"


# Stored coordinates per kind, in order: a point (x, y), a homogeneous line
# ax + by + c = 0, a circle by centre and radius.  The names are both the
# intergeo.xml attributes and the fields of the numeric scene objects.
ELEMENT_COORDS: dict[GeoKind, tuple[str, ...]] = {
    GeoKind.POINT: ("x", "y"),
    GeoKind.LINE: ("a", "b", "c"),
    GeoKind.CIRCLE: ("cx", "cy", "r"),
}


@dataclass(frozen=True)
class ElementInstance:
    """One object of the static initial instance."""

    id: str
    kind: GeoKind
    coords: tuple[float, ...]


class ConstraintKind(enum.Enum):
    """Supported construction steps; everything else is carried as OPAQUE."""

    FREE_POINT = "free_point"
    LINE_THROUGH_TWO_POINTS = "line_through_two_points"
    INTERSECTION_OF_TWO_LINES = "intersection_of_two_lines"
    MIDPOINT_OF_TWO_POINTS = "midpoint_of_two_points"
    CIRCLE_BY_CENTER_AND_POINT = "circle_by_center_and_point"
    PERPENDICULAR_LINE_THROUGH_POINT = "perpendicular_line_through_point"
    PARALLEL_LINE_THROUGH_POINT = "parallel_line_through_point"
    POINT_ON_LINE = "point_on_line"
    POINT_ON_CIRCLE = "point_on_circle"
    OPAQUE = "opaque"


# kind -> (input kinds, output kind, intergeo.xml attribute of the stored real
# parameter, or None for a step that takes none)
CONSTRAINT_SIGNATURES: dict[ConstraintKind, tuple[tuple[GeoKind, ...], GeoKind, str | None]] = {
    ConstraintKind.FREE_POINT: ((), GeoKind.POINT, None),
    ConstraintKind.LINE_THROUGH_TWO_POINTS: ((GeoKind.POINT, GeoKind.POINT), GeoKind.LINE, None),
    ConstraintKind.INTERSECTION_OF_TWO_LINES: ((GeoKind.LINE, GeoKind.LINE), GeoKind.POINT, None),
    ConstraintKind.MIDPOINT_OF_TWO_POINTS: ((GeoKind.POINT, GeoKind.POINT), GeoKind.POINT, None),
    ConstraintKind.CIRCLE_BY_CENTER_AND_POINT: ((GeoKind.POINT, GeoKind.POINT), GeoKind.CIRCLE, None),
    ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT: ((GeoKind.LINE, GeoKind.POINT), GeoKind.LINE, None),
    ConstraintKind.PARALLEL_LINE_THROUGH_POINT: ((GeoKind.LINE, GeoKind.POINT), GeoKind.LINE, None),
    ConstraintKind.POINT_ON_LINE: ((GeoKind.LINE,), GeoKind.POINT, "parameter"),
    ConstraintKind.POINT_ON_CIRCLE: ((GeoKind.CIRCLE,), GeoKind.POINT, "angle"),
}
# By intergeo.xml tag, each kind's value: tag -> (kind, coordinate names), and
# tag -> (kind, input kinds, output kind, parameter attribute); any other step
# tag is an opaque step.  Lookups are by tag, which hashes in C; an Enum
# member hashes in Python.
_ELEMENT_TAGS = {kind.value: (kind, coords) for kind, coords in ELEMENT_COORDS.items()}
_STEP_TAGS = {kind.value: (kind, *sig) for kind, sig in CONSTRAINT_SIGNATURES.items()}


@dataclass(frozen=True)
class Constraint:
    """One straight-line-program step defining ``output`` from ``inputs``.

    OPAQUE constraints keep their original XML element verbatim in
    ``opaque_payload`` (tag name in ``opaque_tag``) and are never evaluated
    numerically; the output id is taken from the element's ``out`` attribute
    so the element/constraint bijection still holds.
    """

    output: str
    kind: ConstraintKind
    inputs: tuple[str, ...] = ()
    parameter: float | None = None
    opaque_tag: str | None = None
    opaque_payload: bytes | None = None


@dataclass(frozen=True)
class Construction:
    """Straight-line program plus its static initial instance.

    ``display`` carries the rendering subtree opaquely (may be empty).
    """

    elements: tuple[ElementInstance, ...]
    constraints: tuple[Constraint, ...]
    display: bytes = b""

    def element_kinds(self) -> dict[str, GeoKind]:
        return {e.id: e.kind for e in self.elements}

    def free_point_ids(self) -> tuple[str, ...]:
        return tuple(
            c.output for c in self.constraints if c.kind is ConstraintKind.FREE_POINT
        )

    def has_opaque(self) -> bool:
        return any(c.kind is ConstraintKind.OPAQUE for c in self.constraints)


# ---------------------------------------------------------------------------
# Conjecture ASTs


# The deepest term: `const` and `segment_length` have depth 1, `plus` and
# `mult` one more than their deeper operand.  No deeper term can be built,
# so the readers, the writers and every term walker recurse once per level,
# far below the interpreter's recursion limit.
MAX_TERM_DEPTH = 100
# Caps on each XML document read and each payload written, so that a small
# archive cannot make the reader build an unbounded tree: elements nest at
# most MAX_XML_DEPTH deep and a document holds at most MAX_XML_ELEMENTS.
# The depth is far above a term of MAX_TERM_DEPTH levels (103 deep, under
# conjecture/conclusion/equal), so a term somewhat past that limit is still
# read and refused as one ArityError at its first level too deep.
MAX_XML_DEPTH = 10_000
MAX_XML_ELEMENTS = 100_000


class Term:
    """Base class of arithmetic term nodes (conjecture ``equal`` operands).

    ``depth`` counts the levels of a term, at most MAX_TERM_DEPTH, and
    ``nodes`` its nodes, one XML element each when it is written, at most
    MAX_XML_ELEMENTS."""

    __slots__ = ()
    depth = 1
    nodes = 1


@dataclass(frozen=True)
class Const(Term):
    value: float


@dataclass(frozen=True)
class SegmentLength(Term):
    a: str
    b: str


def _nest(t: Plus | Mult) -> None:
    """Give a plus or mult its depth and its number of nodes.  Past
    MAX_TERM_DEPTH levels, raise CodecError with one ArityError at the
    refused term; past MAX_XML_ELEMENTS nodes, which no reader reads and
    which a term that shares subterms reaches in a few levels, with one
    MalformedXml there."""

    depth = max(t.left.depth, t.right.depth) + 1
    if depth > MAX_TERM_DEPTH:
        message = f"term nested deeper than {MAX_TERM_DEPTH} levels"
        raise CodecError([Violation("ArityError", f"/{TERM_NAMES[type(t)]}", message)])
    nodes = t.left.nodes + t.right.nodes + 1
    if nodes > MAX_XML_ELEMENTS:
        message = f"term would be written with {nodes} elements, more than {MAX_XML_ELEMENTS}"
        raise CodecError([Violation("MalformedXml", f"/{TERM_NAMES[type(t)]}", message)])
    object.__setattr__(t, "depth", depth)
    object.__setattr__(t, "nodes", nodes)


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term
    __post_init__ = _nest


@dataclass(frozen=True)
class Mult(Term):
    left: Term
    right: Term
    __post_init__ = _nest


class Predicate:
    """Base class of geometric statement nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class _FourPoints:
    """The fields of a predicate on two lines or segments, ab and cd."""

    a: str
    b: str
    c: str
    d: str


@dataclass(frozen=True)
class NotEqual(Predicate):
    p: str
    q: str


@dataclass(frozen=True)
class NotParallel(_FourPoints, Predicate):
    """Line ab is not parallel to line cd."""


@dataclass(frozen=True)
class Equal(Predicate):
    left: Term
    right: Term


@dataclass(frozen=True)
class Collinear(Predicate):
    p: str
    q: str
    r: str


@dataclass(frozen=True)
class Perpendicular(_FourPoints, Predicate):
    """Line ab is perpendicular to line cd."""


@dataclass(frozen=True)
class Parallel(_FourPoints, Predicate):
    """Line ab is parallel to line cd."""


@dataclass(frozen=True)
class Midpoint(Predicate):
    """m is the midpoint of segment ab."""

    m: str
    a: str
    b: str


@dataclass(frozen=True)
class SameLength(_FourPoints, Predicate):
    """|ab| = |cd|."""


@dataclass(frozen=True)
class Harmonic(_FourPoints, Predicate):
    """(a, b; c, d) form a harmonic range: signed cross ratio is -1."""


@dataclass(frozen=True)
class SegmentRatio(_FourPoints, Predicate):
    """|ab| = ratio * |cd|."""

    ratio: float


# The conjecture vocabulary shared by conjecture.xml, the DSL and the prover
# input: predicate name -> (class, number of point ids).  SegmentRatio also
# carries a ratio; Equal carries two terms instead of point ids.
PREDICATES: dict[str, tuple[type, int | None]] = {
    "not_equal": (NotEqual, 2),
    "not_parallel": (NotParallel, 4),
    "equal": (Equal, None),
    "collinear": (Collinear, 3),
    "perpendicular": (Perpendicular, 4),
    "parallel": (Parallel, 4),
    "midpoint": (Midpoint, 3),
    "same_length": (SameLength, 4),
    "harmonic": (Harmonic, 4),
    "segment_ratio": (SegmentRatio, 4),
}
PREDICATE_NAMES: dict[type, str] = {cls: name for name, (cls, _n) in PREDICATES.items()}
# The sections of a conjecture and the fields of a proof attempt's identity,
# in the order that conjecture.xml and proofInfo.xml write them
CONJECTURE_SECTIONS = ("hypothesis", "ndg", "conclusion")
ATTEMPT_IDENTITY = ("prover", "version", "method")
# term name -> class; Const carries a number, SegmentLength two point ids,
# Plus and Mult two terms
TERMS: dict[str, type] = {"const": Const, "segment_length": SegmentLength, "plus": Plus, "mult": Mult}
TERM_NAMES: dict[type, str] = {cls: name for name, cls in TERMS.items()}


def term_point_ids(t: Term) -> tuple[str, ...]:
    """Point ids referenced by a term, in syntactic order."""

    if isinstance(t, SegmentLength):
        return (t.a, t.b)
    if isinstance(t, (Plus, Mult)):
        return term_point_ids(t.left) + term_point_ids(t.right)
    if isinstance(t, Const):
        return ()
    raise TypeError(f"not a Term: {t!r}")


def predicate_point_ids(p: Predicate) -> tuple[str, ...]:
    """Point ids referenced by a predicate, in syntactic order."""

    if isinstance(p, NotEqual):
        return (p.p, p.q)
    if isinstance(p, Collinear):
        return (p.p, p.q, p.r)
    if isinstance(p, Midpoint):
        return (p.m, p.a, p.b)
    if isinstance(p, _FourPoints):
        return (p.a, p.b, p.c, p.d)
    if isinstance(p, Equal):
        return term_point_ids(p.left) + term_point_ids(p.right)
    raise TypeError(f"not a Predicate: {p!r}")


@dataclass(frozen=True)
class Conjecture:
    """Hypotheses and non-degeneracy conditions imply the conclusion
    conjunction; ``conclusion`` is never empty."""

    hypothesis: tuple[Predicate, ...]
    ndg: tuple[Predicate, ...]
    conclusion: tuple[Predicate, ...]


# ---------------------------------------------------------------------------
# Proof attempt metadata


class ProofStatus(enum.Enum):
    """Outcome of one proof attempt.

    Values are the lowercase strings stored in proofInfo.xml; reading maps
    case-insensitively, so SZS-style capitalized names round into the
    unsolved branch (GaveUp, Timeout, ResourceOut, Error, Unknown) as-is.
    """

    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"
    GAVE_UP = "gaveup"
    TIMEOUT = "timeout"
    RESOURCE_OUT = "resourceout"
    ERROR = "error"


@dataclass(frozen=True)
class ProofLimits:
    """Resource limits imposed on the prover; absent values were not set."""

    time_limit_seconds: float | None = None
    iterations_limit: int | None = None
    memory_limit_mb: int | None = None


@dataclass(frozen=True)
class ProofMeasures:
    """Efficiency measures reported by the prover; absence is distinct
    from a measured zero."""

    cpu_time_seconds: float | None = None
    elimination_steps: int | None = None
    number_terms_largest_polynomial: int | None = None
    proof_steps: int | None = None


@dataclass(frozen=True)
class Platform:
    """Machine the attempt ran on."""

    computer_name: str | None = None
    clock_speed_mhz: float | None = None
    ram_mb: int | None = None
    operating_system: str | None = None


@dataclass(frozen=True)
class ProofAttempt:
    """One prover run; (prover, version, method) is unique per problem and
    composes the proofs/ directory name."""

    prover: str
    version: str
    method: str
    status: ProofStatus
    limits: ProofLimits = ProofLimits()
    measures: ProofMeasures = ProofMeasures()
    platform: Platform = Platform()
    outputs: tuple[tuple[str, bytes], ...] = ()

    @property
    def identity(self) -> tuple[str, str, str]:
        return (self.prover, self.version, self.method)

    @property
    def directory_name(self) -> str:
        return f"proof{self.prover}{self.version}{self.method}"


# The proofInfo.xml layout below the status, shared by its reader, its writer
# and the attempt validator: section (also the ProofAttempt attribute) ->
# (record class, violation code, whether 0 is allowed, children as (XML tag,
# record field, type) in document order).  Numbers must be finite and >= 0,
# or > 0 where 0 is not allowed; str children are free text.
PROOF_INFO_SECTIONS: dict[str, tuple[type, str, bool, tuple[tuple[str, str, type], ...]]] = {
    "limits": (ProofLimits, "NegativeLimit", True, (
        ("time_limit_seconds", "time_limit_seconds", float),
        ("iterations_limit", "iterations_limit", int),
        ("memory_limit_mb", "memory_limit_mb", int),
    )),
    "measures": (ProofMeasures, "NegativeMeasure", True, (
        ("CPU_time", "cpu_time_seconds", float),
        ("elimination_steps", "elimination_steps", int),
        ("number_terms_largest_polynomial", "number_terms_largest_polynomial", int),
        ("proof_steps", "proof_steps", int),
    )),
    "platform": (Platform, "NonPositivePlatform", False, (
        ("computer_name", "computer_name", str),
        ("clock_speed", "clock_speed_mhz", float),
        ("RAM", "ram_mb", int),
        ("operating_system", "operating_system", str),
    )),
}


# ---------------------------------------------------------------------------
# Generic information


@dataclass(frozen=True)
class BibEntry:
    """Bibliographic reference; payload bytes are carried opaquely."""

    id: str
    payload: bytes


@dataclass(frozen=True)
class ProblemInfo:
    """Human metadata; only the name is mandatory.

    ``statement`` is an opaque XML payload (MathML in practice) preserved
    byte-exactly through parse/serialize.
    """

    name: str
    description: str = ""
    statement: bytes = b""
    bibrefs: tuple[BibEntry, ...] = ()
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True)
class Problem:
    """Everything one container holds.

    ``resources``, ``metadata`` and ``private`` are (container-relative
    path, bytes) pairs carried opaquely; ``resources`` also keeps unknown
    files found under the known directories (e.g. construction/preview.pdf)
    at their original paths.
    """

    construction: Construction
    info: ProblemInfo | None = None
    conjecture: Conjecture | None = None
    proofs: tuple[ProofAttempt, ...] = ()
    resources: tuple[tuple[str, bytes], ...] = ()
    metadata: tuple[tuple[str, bytes], ...] = ()
    private: tuple[tuple[str, bytes], ...] = ()


# ---------------------------------------------------------------------------
# Violations


@dataclass(frozen=True)
class Violation:
    """One invariant violation: stable code, XML-path-like locator, text."""

    code: str
    path: str
    message: str


# Closed catalogue; every violation produced anywhere in the package uses
# one of these codes (see docs/violations.md).
VIOLATION_CODES = frozenset(
    {
        "MalformedXml",
        "MissingName",
        "UnknownTag",
        "UnknownPredicate",
        "ArityError",
        "MissingConclusion",
        "MissingElementsPart",
        "DanglingReference",
        "ForwardReference",
        "DuplicateId",
        "DuplicateOutput",
        "MissingElement",
        "UnconstrainedElement",
        "UnresolvedId",
        "KindMismatch",
        "MissingParameter",
        "BadNumber",
        "NonFinite",
        "ZeroLine",
        "NegativeRadius",
        "BadRatio",
        "BadId",
        "BadName",
        "EmptyKeyword",
        "DuplicateKeyword",
        "UnknownStatus",
        "NegativeMeasure",
        "NegativeLimit",
        "NonPositivePlatform",
        "DuplicateAttempt",
        "BadPath",
        "DuplicateEntry",
        "UnknownEntry",
        "UnexpectedEntry",
        "MissingIntergeo",
        "MissingMandatoryDir",
        "BadProofDirName",
        "DirNameMismatch",
        "MalformedZip",
    }
)


def _violation(out: list[Violation], code: str, path: str, message: str) -> None:
    assert code in VIOLATION_CODES, code
    out.append(Violation(code, path, message))


def _refuse(violations: list[Violation]) -> None:
    """Raise CodecError carrying ``violations`` unless the list is empty: a
    writer's refusal of a value the validators reject."""

    if violations:
        raise CodecError(violations)


def _payload_root(out: list[Violation], data: bytes, depth: int, path: str, what: str) -> tuple[str, dict[str, str], int] | None:
    """The tag and attributes of the root element of ``data``, a payload
    that is written inside ``depth`` elements, and its number of elements;
    None, with one MalformedXml, when it would not read back there: not a
    well-formed XML document, one with an XML declaration or a DOCTYPE, one
    with any byte before its root's start tag or after its end tag (the
    readers cut a payload there), or one past MAX_XML_DEPTH or
    MAX_XML_ELEMENTS."""

    parser = xml.parsers.expat.ParserCreate()
    root = None
    level = depth
    count = 0

    def on_start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal root, level, count
        level += 1
        count += 1
        if level > MAX_XML_DEPTH or count > MAX_XML_ELEMENTS:
            raise ValueError("past a cap")
        if root is None:
            if parser.CurrentByteIndex != 0:
                raise ValueError("bytes before the root")
            root = (tag, attrs)

    def on_end(_tag: str) -> None:
        nonlocal level
        level -= 1
        if level == depth:
            # the root's end tag must end the payload, and so must its
            # empty-element tag: a comment, a processing instruction or
            # whitespace after it never ends in '/>'
            at = parser.CurrentByteIndex
            closed = data.find(b">", at) == len(data) - 1 if data.startswith(b"</", at) else data.endswith(b"/>")
            if not closed:
                raise ValueError("bytes after the root")

    def refuse(*_args: object) -> None:
        raise ValueError("a declaration inside a document")

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.XmlDeclHandler = parser.StartDoctypeDeclHandler = refuse
    try:
        parser.Parse(data, True)
    except XML_READ_ERRORS:
        message = (
            f"{what} payload is not one well-formed XML element: it has bytes outside its root element, an XML declaration "
            f"or a DOCTYPE, or puts more than {MAX_XML_DEPTH} levels or {MAX_XML_ELEMENTS} elements in its document"
        )
        _violation(out, "MalformedXml", path, message)
        return None
    return (*root, count)


def _not_xml_text(what: str, text: str) -> str:
    """The message of a MalformedXml for free text ``what``, ``text``, that
    holds a character _NOT_XML_CHAR matches."""

    return f"{what} holds {_NOT_XML_CHAR.search(text)[0]!r}, a character XML 1.0 cannot carry"


def _count_elements(out: list[Violation], count: int, document: str) -> None:
    """One MalformedXml when the ``document`` root element would be written
    with ``count`` elements, past MAX_XML_ELEMENTS, which no reader reads."""

    if count > MAX_XML_ELEMENTS:
        message = f"<{document}> would be written with {count} elements, more than {MAX_XML_ELEMENTS}"
        _violation(out, "MalformedXml", f"/{document}", message)


def is_safe_relative_path(path: str) -> bool:
    """Forward slashes, relative, no '.'/'..' segments, no backslashes, no
    NUL (zip readers cut a name at its first NUL) and a UTF-8 form (a
    container stores every name in UTF-8; a lone surrogate, as a file name
    that is not UTF-8 decodes to, has none)."""

    if not path or path.startswith("/") or "\\" in path or "\0" in path:
        return False
    if not path.isascii():
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            return False
    # an empty, "." or ".." segment, the first or the last included
    wrapped = f"/{path}/"
    return "//" not in wrapped and "/./" not in wrapped and "/../" not in wrapped


# ---------------------------------------------------------------------------
# validate_problem


# The locators of the values the validators loop over; each is built only
# where a violation is recorded, so a valid value builds none.


def _bibentry_path(i: int) -> str:
    return f"/information/bibrefs/bibentry[{i}]"


def _keyword_path(i: int) -> str:
    return f"/information/keywords/keyword[{i}]"


def _element_path(i: int, e: ElementInstance) -> str:
    return f"/construction/elements/{e.kind.value}[{i}]"


def _constraint_path(i: int, c: Constraint) -> str:
    tag = c.opaque_tag if c.kind is ConstraintKind.OPAQUE else c.kind.value
    return f"/construction/constraints/{tag}[{i}]"


def _predicate_path(section: str, i: int, p: Predicate) -> str:
    return f"/conjecture/{section}/{PREDICATE_NAMES[type(p)]}[{i}]"


def validate_info(info: ProblemInfo) -> list[Violation]:
    """Violations of the generic-information invariants alone."""

    out: list[Violation] = []
    if not info.name:
        _violation(out, "MissingName", "/information/name", "problem name is required")
    elif not PROBLEM_NAME_RE.match(info.name):
        _violation(out, "BadName", "/information/name", f"invalid problem name {info.name!r}")
    if _NOT_XML_CHAR.search(info.description):
        _violation(out, "MalformedXml", "/information/description", _not_xml_text("description", info.description))
    # information, name, and each part below written when it is not empty
    elements = 2 + bool(info.description) + bool(info.bibrefs) + len(info.bibrefs) + bool(info.keywords) + len(info.keywords)
    if info.statement:
        root = _payload_root(out, info.statement, 2, "/information/statement", "statement")
        elements += 1 + (root[2] if root else 0)
    seen_bib: set[str] = set()
    for i, entry in enumerate(info.bibrefs):
        if not ID_RE.match(entry.id):
            _violation(out, "BadId", _bibentry_path(i), f"invalid bibentry id {entry.id!r}")
        if entry.id in seen_bib:
            _violation(out, "DuplicateId", _bibentry_path(i), f"duplicate bibentry id {entry.id!r}")
        seen_bib.add(entry.id)
        if entry.payload:
            root = _payload_root(out, entry.payload, 3, _bibentry_path(i), "bibentry")
            elements += root[2] if root else 0
    seen_kw: set[str] = set()
    for i, kw in enumerate(info.keywords):
        if _NOT_XML_CHAR.search(kw):
            _violation(out, "MalformedXml", _keyword_path(i), _not_xml_text("keyword", kw))
        norm = " ".join(kw.split())
        if not norm:
            _violation(out, "EmptyKeyword", _keyword_path(i), "keyword is empty")
        elif norm in seen_kw:
            _violation(out, "DuplicateKeyword", _keyword_path(i), f"duplicate keyword {norm!r}")
        seen_kw.add(norm)
    _count_elements(out, elements, "information")
    return out


def _validate_element(e: ElementInstance, i: int, out: list[Violation]) -> None:
    want = len(_ELEMENT_TAGS[e.kind._value_][1])
    if len(e.coords) != want:
        _violation(out, "ArityError", _element_path(i, e), f"{e.kind.value} needs {want} coordinates, got {len(e.coords)}")
        return
    if not all(map(math.isfinite, e.coords)):
        _violation(out, "NonFinite", _element_path(i, e), "coordinates must be finite")
        return
    if e.kind is GeoKind.LINE and not any(e.coords):  # every coefficient is 0.0
        _violation(out, "ZeroLine", _element_path(i, e), "line coefficients are all zero")
    if e.kind is GeoKind.CIRCLE and e.coords[2] < 0.0:
        _violation(out, "NegativeRadius", _element_path(i, e), f"circle radius {e.coords[2]} is negative")


def construction_element_count(elements: int, constraints: int) -> int:
    """The elements a <construction> of plain steps is written with: itself,
    <elements> and one per element, <constraints> when there are any and
    one per constraint."""

    return 2 + elements + bool(constraints) + constraints


def validate_construction(k: Construction) -> list[Violation]:
    """Violations of the construction invariants alone (ids, arities,
    kinds, straight-line order, element/constraint bijection)."""

    out: list[Violation] = []
    kinds: dict[str, GeoKind] = {}
    valid: set[str] = set()  # the ids ID_RE matched, so that each is matched once
    for i, e in enumerate(k.elements):
        if e.id not in valid:
            if ID_RE.match(e.id):
                valid.add(e.id)
            else:
                _violation(out, "BadId", _element_path(i, e), f"invalid element id {e.id!r}")
        if e.id in kinds:
            _violation(out, "DuplicateId", _element_path(i, e), f"duplicate element id {e.id!r}")
        else:
            kinds[e.id] = e.kind
        _validate_element(e, i, out)
    # an opaque constraint or the display is written as its payload's elements
    elements = construction_element_count(len(k.elements), len(k.constraints))
    if k.display:
        root = _payload_root(out, k.display, 1, "/construction/display", "display")
        if root is not None and root[0] != "display":
            _violation(out, "UnknownTag", "/construction/display", f"display payload root is <{root[0]}>, expected <display>")
        elements += root[2] if root else 0

    defined: set[str] = set()
    outputs_seen: set[str] = set()
    for i, c in enumerate(k.constraints):
        if c.output not in valid:
            if ID_RE.match(c.output or ""):
                valid.add(c.output)
            else:
                _violation(out, "BadId", _constraint_path(i, c), f"invalid constraint output id {c.output!r}")
        for ref in dict.fromkeys(c.inputs):
            if ref not in valid:
                if ID_RE.match(ref):
                    valid.add(ref)
                else:
                    _violation(out, "BadId", _constraint_path(i, c), f"invalid input id {ref!r}")
        if c.output in outputs_seen:
            _violation(out, "DuplicateOutput", _constraint_path(i, c), f"id {c.output!r} defined by more than one constraint")
        outputs_seen.add(c.output)
        if c.output not in kinds:
            _violation(out, "MissingElement", _constraint_path(i, c), f"output {c.output!r} has no element instance")
        if c.kind is ConstraintKind.OPAQUE:
            # the payload is written as the step, so it must read back as this step
            path = _constraint_path(i, c)
            root = _payload_root(out, c.opaque_payload or b"", 2, path, "opaque constraint")
            if root is not None:
                tag, attrs, count = root
                elements += count - 1
                if tag != c.opaque_tag:
                    _violation(out, "UnknownTag", path, f"opaque constraint payload root is <{tag}>, expected <{c.opaque_tag}>")
                elif tag in _STEP_TAGS:
                    _violation(out, "UnknownTag", path, f"opaque constraint <{tag}> is a supported step")
                if attrs.get("out") != c.output:
                    _violation(out, "BadId", path, f"opaque constraint payload out {attrs.get('out')!r} is not its output {c.output!r}")
            defined.add(c.output)
            continue
        _kind, in_kinds, out_kind, param_attr = _STEP_TAGS[c.kind._value_]
        if len(c.inputs) != len(in_kinds):
            _violation(out, "ArityError", _constraint_path(i, c), f"{c.kind.value} takes {len(in_kinds)} inputs, got {len(c.inputs)}")
        else:
            for ref, want_kind in zip(c.inputs, in_kinds):
                if ref not in kinds:
                    _violation(out, "DanglingReference", _constraint_path(i, c), f"input {ref!r} is not an element")
                elif ref not in defined:
                    _violation(out, "ForwardReference", _constraint_path(i, c), f"input {ref!r} is defined later in the program")
                elif kinds[ref] is not want_kind:
                    message = f"input {ref!r} is a {kinds[ref].value}, expected {want_kind.value}"
                    _violation(out, "KindMismatch", _constraint_path(i, c), message)
        if c.output in kinds and kinds[c.output] is not out_kind:
            message = f"output {c.output!r} is a {kinds[c.output].value}, {c.kind.value} produces a {out_kind.value}"
            _violation(out, "KindMismatch", _constraint_path(i, c), message)
        if param_attr is None:
            if c.parameter is not None:
                _violation(out, "ArityError", _constraint_path(i, c), f"{c.kind.value} takes no parameter")
        elif c.parameter is None:
            _violation(out, "MissingParameter", _constraint_path(i, c), f"{c.kind.value} requires a parameter")
        elif not math.isfinite(c.parameter):
            _violation(out, "NonFinite", _constraint_path(i, c), "parameter must be finite")
        defined.add(c.output)

    for i, e in enumerate(k.elements):
        if e.id not in outputs_seen:
            _violation(out, "UnconstrainedElement", _element_path(i, e), f"element {e.id!r} is not the output of any constraint")
    _count_elements(out, elements, "construction")
    return out


def _non_finite_constants(t: Term) -> int:
    """The number of constants of ``t`` that are not finite."""

    if isinstance(t, Const):
        return not math.isfinite(t.value)
    if isinstance(t, (Plus, Mult)):
        return _non_finite_constants(t.left) + _non_finite_constants(t.right)
    return 0


def validate_conjecture(c: Conjecture, k: Construction | None = None) -> list[Violation]:
    """Violations of the conjecture invariants; id resolution is checked
    only when a construction is supplied."""

    out: list[Violation] = []
    if not c.conclusion:
        _violation(out, "MissingConclusion", "/conjecture/conclusion", "conclusion must contain at least one predicate")
    sections = [(section, getattr(c, section)) for section in CONJECTURE_SECTIONS]
    # conjecture, and below it each section that is not empty; a term's size
    # is known without a walk, and a term that shares subterms may have
    # exponentially many nodes, so a conjecture past the cap is not walked
    elements = 1 + sum(bool(preds) + len(preds) for _section, preds in sections)
    elements += sum(p.left.nodes + p.right.nodes for _section, preds in sections for p in preds if isinstance(p, Equal))
    if elements > MAX_XML_ELEMENTS:
        _count_elements(out, elements, "conjecture")
        return out
    kinds = k.element_kinds() if k is not None else None
    for section, preds in sections:
        for i, p in enumerate(preds):
            # a repeated id is reported once per predicate
            for ref in dict.fromkeys(predicate_point_ids(p)):
                if not ID_RE.match(ref):
                    _violation(out, "BadId", _predicate_path(section, i, p), f"invalid point id {ref!r}")
                if kinds is None:
                    continue
                if ref not in kinds:
                    _violation(out, "UnresolvedId", _predicate_path(section, i, p), f"id {ref!r} does not resolve in the construction")
                elif kinds[ref] is not GeoKind.POINT:
                    message = f"id {ref!r} is a {kinds[ref].value}, predicates take points"
                    _violation(out, "KindMismatch", _predicate_path(section, i, p), message)
            if isinstance(p, Equal):
                for _ in range(_non_finite_constants(p.left) + _non_finite_constants(p.right)):
                    _violation(out, "NonFinite", _predicate_path(section, i, p), "constant must be finite")
            elif isinstance(p, SegmentRatio):
                if not math.isfinite(p.ratio) or p.ratio < 0.0:
                    _violation(out, "BadRatio", _predicate_path(section, i, p), f"segment ratio {p.ratio} must be finite and >= 0")
    return out


def _validate_attempt(a: ProofAttempt, path: str, out: list[Violation]) -> None:
    for fld, value in zip(ATTEMPT_IDENTITY, a.identity):
        if not ATTEMPT_FIELD_RE.match(value):
            _violation(out, "BadName", f"{path}/{fld}", f"invalid {fld} {value!r} (composes a directory name)")
    for section, (_record, code, zero_ok, children) in PROOF_INFO_SECTIONS.items():
        record = getattr(a, section)
        for tag, fld, as_type in children:
            value = getattr(record, fld)
            if value is None:
                continue
            if as_type is str:
                if _NOT_XML_CHAR.search(value):
                    _violation(out, "MalformedXml", f"{path}/{section}/{tag}", _not_xml_text(fld, value))
                continue
            if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
                bound = ">= 0" if zero_ok else "> 0"
                _violation(out, code, f"{path}/{section}/{tag}", f"{fld} must be finite and {bound}")
    seen: set[str] = set()
    for name, _data in a.outputs:
        if not is_safe_relative_path(name):
            _violation(out, "BadPath", f"{path}/outputs/{name}", f"unsafe output filename {name!r}")
        if name in seen:
            _violation(out, "DuplicateEntry", f"{path}/outputs/{name}", f"duplicate output filename {name!r}")
        seen.add(name)


def _validate_carried_files(
    files: tuple[tuple[str, bytes], ...], section: str, prefix: str | None, out: list[Violation]
) -> None:
    seen: set[str] = set()
    for fpath, _data in files:
        loc = f"/{section}/{fpath}"
        if not is_safe_relative_path(fpath):
            _violation(out, "BadPath", loc, f"unsafe path {fpath!r}")
            continue
        if prefix is not None and not fpath.startswith(prefix):
            _violation(out, "UnexpectedEntry", loc, f"path must start with {prefix!r}")
        if fpath in seen:
            _violation(out, "DuplicateEntry", loc, f"duplicate path {fpath!r}")
        seen.add(fpath)


def validate_problem(problem: Problem) -> list[Violation]:
    """Collect every invariant violation across all nested values.

    Pure: identical input yields the identical list, order included.  An
    empty list means the problem is valid.
    """

    out = validate_info(problem.info) if problem.info is not None else []
    out += validate_construction(problem.construction)
    if problem.conjecture is not None:
        out += validate_conjecture(problem.conjecture, problem.construction)
    seen_triples: set[tuple[str, str, str]] = set()
    for i, attempt in enumerate(problem.proofs):
        path = f"/proofs/attempt[{i}]"
        if attempt.identity in seen_triples:
            _violation(
                out,
                "DuplicateAttempt",
                path,
                f"duplicate attempt {attempt.prover}/{attempt.version}/{attempt.method}",
            )
        seen_triples.add(attempt.identity)
        _validate_attempt(attempt, path, out)
    _validate_carried_files(problem.resources, "resources", None, out)
    _validate_carried_files(problem.metadata, "metadata", "metadata/", out)
    _validate_carried_files(problem.private, "private", "private/", out)
    return out


def validate_attempt(a: ProofAttempt) -> list[Violation]:
    """Violations of one proof attempt's invariants."""

    out: list[Violation] = []
    _validate_attempt(a, "/proof_info", out)
    return out


def canonicalize_problem(p: Problem) -> Problem:
    """Canonical-order twin of ``p``: proof attempts sorted by identity,
    attempt outputs and carried files sorted by path.  Semantic content is
    untouched; unpack(pack(p)) equals canonicalize_problem(p)."""

    proofs = tuple(
        replace(a, outputs=tuple(sorted(a.outputs, key=lambda kv: kv[0])))
        for a in sorted(p.proofs, key=lambda a: a.identity)
    )
    return replace(
        p,
        proofs=proofs,
        resources=tuple(sorted(p.resources, key=lambda kv: kv[0])),
        metadata=tuple(sorted(p.metadata, key=lambda kv: kv[0])),
        private=tuple(sorted(p.private, key=lambda kv: kv[0])),
    )
