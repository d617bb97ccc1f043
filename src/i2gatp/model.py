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
NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
# What expat raises for a document it cannot read: a syntax error, an
# encoding it does not know (LookupError) or a multi-byte one it does not
# support (ValueError), each named by the XML declaration
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


class Term:
    """Base class of arithmetic term nodes (conjecture ``equal`` operands).

    ``depth`` counts the levels of a term, at most MAX_TERM_DEPTH."""

    __slots__ = ()
    depth = 1


@dataclass(frozen=True)
class Const(Term):
    value: float


@dataclass(frozen=True)
class SegmentLength(Term):
    a: str
    b: str


def _nest(t: Plus | Mult) -> None:
    """Give a plus or mult its depth; past MAX_TERM_DEPTH, raise CodecError
    with one ArityError at the refused term."""

    depth = max(t.left.depth, t.right.depth) + 1
    if depth > MAX_TERM_DEPTH:
        message = f"term nested deeper than {MAX_TERM_DEPTH} levels"
        raise CodecError([Violation("ArityError", f"/{TERM_NAMES[type(t)]}", message)])
    object.__setattr__(t, "depth", depth)


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
class NotEqual(Predicate):
    p: str
    q: str


@dataclass(frozen=True)
class NotParallel(Predicate):
    """Line ab is not parallel to line cd."""

    a: str
    b: str
    c: str
    d: str


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
class Perpendicular(Predicate):
    """Line ab is perpendicular to line cd."""

    a: str
    b: str
    c: str
    d: str


@dataclass(frozen=True)
class Parallel(Predicate):
    """Line ab is parallel to line cd."""

    a: str
    b: str
    c: str
    d: str


@dataclass(frozen=True)
class Midpoint(Predicate):
    """m is the midpoint of segment ab."""

    m: str
    a: str
    b: str


@dataclass(frozen=True)
class SameLength(Predicate):
    """|ab| = |cd|."""

    a: str
    b: str
    c: str
    d: str


@dataclass(frozen=True)
class Harmonic(Predicate):
    """(a, b; c, d) form a harmonic range: signed cross ratio is -1."""

    a: str
    b: str
    c: str
    d: str


@dataclass(frozen=True)
class SegmentRatio(Predicate):
    """|ab| = ratio * |cd|."""

    a: str
    b: str
    c: str
    d: str
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
    if isinstance(p, (NotParallel, Perpendicular, Parallel, SameLength, Harmonic)):
        return (p.a, p.b, p.c, p.d)
    if isinstance(p, SegmentRatio):
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


def is_well_formed_xml(data: bytes) -> bool:
    """True when ``data`` parses as a standalone XML document."""

    parser = xml.parsers.expat.ParserCreate()
    try:
        parser.Parse(data, True)
    except XML_READ_ERRORS:
        return False
    return True


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
    return all(seg not in ("", ".", "..") for seg in path.split("/"))


# ---------------------------------------------------------------------------
# validate_problem


def _validate_info(info: ProblemInfo, out: list[Violation]) -> None:
    if not info.name:
        _violation(out, "MissingName", "/information/name", "problem name is required")
    elif not PROBLEM_NAME_RE.match(info.name):
        _violation(out, "BadName", "/information/name", f"invalid problem name {info.name!r}")
    if info.statement and not is_well_formed_xml(info.statement):
        _violation(out, "MalformedXml", "/information/statement", "statement payload is not well-formed XML")
    seen_bib: set[str] = set()
    for i, entry in enumerate(info.bibrefs):
        path = f"/information/bibrefs/bibentry[{i}]"
        if not ID_RE.match(entry.id):
            _violation(out, "BadId", path, f"invalid bibentry id {entry.id!r}")
        if entry.id in seen_bib:
            _violation(out, "DuplicateId", path, f"duplicate bibentry id {entry.id!r}")
        seen_bib.add(entry.id)
        if entry.payload and not is_well_formed_xml(entry.payload):
            _violation(out, "MalformedXml", path, "bibentry payload is not well-formed XML")
    seen_kw: set[str] = set()
    for i, kw in enumerate(info.keywords):
        path = f"/information/keywords/keyword[{i}]"
        norm = " ".join(kw.split())
        if not norm:
            _violation(out, "EmptyKeyword", path, "keyword is empty")
        elif norm in seen_kw:
            _violation(out, "DuplicateKeyword", path, f"duplicate keyword {norm!r}")
        seen_kw.add(norm)


def _validate_element(e: ElementInstance, path: str, out: list[Violation]) -> None:
    want = len(ELEMENT_COORDS[e.kind])
    if len(e.coords) != want:
        _violation(out, "ArityError", path, f"{e.kind.value} needs {want} coordinates, got {len(e.coords)}")
        return
    if not all(math.isfinite(c) for c in e.coords):
        _violation(out, "NonFinite", path, "coordinates must be finite")
        return
    if e.kind is GeoKind.LINE and all(c == 0.0 for c in e.coords):
        _violation(out, "ZeroLine", path, "line coefficients are all zero")
    if e.kind is GeoKind.CIRCLE and e.coords[2] < 0.0:
        _violation(out, "NegativeRadius", path, f"circle radius {e.coords[2]} is negative")


def _validate_construction(k: Construction, out: list[Violation]) -> None:
    kinds: dict[str, GeoKind] = {}
    for i, e in enumerate(k.elements):
        path = f"/construction/elements/{e.kind.value}[{i}]"
        if not ID_RE.match(e.id):
            _violation(out, "BadId", path, f"invalid element id {e.id!r}")
        if e.id in kinds:
            _violation(out, "DuplicateId", path, f"duplicate element id {e.id!r}")
        else:
            kinds[e.id] = e.kind
        _validate_element(e, path, out)
    if k.display and not is_well_formed_xml(k.display):
        _violation(out, "MalformedXml", "/construction/display", "display payload is not well-formed XML")

    defined: set[str] = set()
    outputs_seen: set[str] = set()
    for i, c in enumerate(k.constraints):
        tag = c.opaque_tag if c.kind is ConstraintKind.OPAQUE else c.kind.value
        path = f"/construction/constraints/{tag}[{i}]"
        if not ID_RE.match(c.output or ""):
            _violation(out, "BadId", path, f"invalid constraint output id {c.output!r}")
        for ref in dict.fromkeys(c.inputs):
            if not ID_RE.match(ref):
                _violation(out, "BadId", path, f"invalid input id {ref!r}")
        if c.output in outputs_seen:
            _violation(out, "DuplicateOutput", path, f"id {c.output!r} defined by more than one constraint")
        outputs_seen.add(c.output)
        if c.output not in kinds:
            _violation(out, "MissingElement", path, f"output {c.output!r} has no element instance")
        if c.kind is ConstraintKind.OPAQUE:
            if c.opaque_payload and not is_well_formed_xml(c.opaque_payload):
                _violation(out, "MalformedXml", path, "opaque constraint payload is not well-formed XML")
            defined.add(c.output)
            continue
        in_kinds, out_kind, param_attr = CONSTRAINT_SIGNATURES[c.kind]
        if len(c.inputs) != len(in_kinds):
            _violation(out, "ArityError", path, f"{c.kind.value} takes {len(in_kinds)} inputs, got {len(c.inputs)}")
        else:
            for ref, want_kind in zip(c.inputs, in_kinds):
                if ref not in kinds:
                    _violation(out, "DanglingReference", path, f"input {ref!r} is not an element")
                elif ref not in defined:
                    _violation(out, "ForwardReference", path, f"input {ref!r} is defined later in the program")
                elif kinds[ref] is not want_kind:
                    _violation(out, "KindMismatch", path, f"input {ref!r} is a {kinds[ref].value}, expected {want_kind.value}")
        if c.output in kinds and kinds[c.output] is not out_kind:
            _violation(out, "KindMismatch", path, f"output {c.output!r} is a {kinds[c.output].value}, {c.kind.value} produces a {out_kind.value}")
        if param_attr is None:
            if c.parameter is not None:
                _violation(out, "ArityError", path, f"{c.kind.value} takes no parameter")
        elif c.parameter is None:
            _violation(out, "MissingParameter", path, f"{c.kind.value} requires a parameter")
        elif not math.isfinite(c.parameter):
            _violation(out, "NonFinite", path, "parameter must be finite")
        defined.add(c.output)

    for i, e in enumerate(k.elements):
        if e.id not in outputs_seen:
            _violation(
                out,
                "UnconstrainedElement",
                f"/construction/elements/{e.kind.value}[{i}]",
                f"element {e.id!r} is not the output of any constraint",
            )


def _validate_term(t: Term, path: str, out: list[Violation]) -> None:
    """Each constant of one operand of the ``equal`` at ``path`` must be
    finite."""

    if isinstance(t, Const):
        if not math.isfinite(t.value):
            _violation(out, "NonFinite", path, "constant must be finite")
    elif isinstance(t, (Plus, Mult)):
        _validate_term(t.left, path, out)
        _validate_term(t.right, path, out)


def _validate_conjecture(c: Conjecture, k: Construction | None, out: list[Violation]) -> None:
    if not c.conclusion:
        _violation(out, "MissingConclusion", "/conjecture/conclusion", "conclusion must contain at least one predicate")
    kinds = k.element_kinds() if k is not None else None
    for section, preds in (("hypothesis", c.hypothesis), ("ndg", c.ndg), ("conclusion", c.conclusion)):
        for i, p in enumerate(preds):
            path = f"/conjecture/{section}/{PREDICATE_NAMES[type(p)]}[{i}]"
            # a repeated id is reported once per predicate
            for ref in dict.fromkeys(predicate_point_ids(p)):
                if not ID_RE.match(ref):
                    _violation(out, "BadId", path, f"invalid point id {ref!r}")
                if kinds is None:
                    continue
                if ref not in kinds:
                    _violation(out, "UnresolvedId", path, f"id {ref!r} does not resolve in the construction")
                elif kinds[ref] is not GeoKind.POINT:
                    _violation(out, "KindMismatch", path, f"id {ref!r} is a {kinds[ref].value}, predicates take points")
            if isinstance(p, Equal):
                _validate_term(p.left, path, out)
                _validate_term(p.right, path, out)
            elif isinstance(p, SegmentRatio):
                if not math.isfinite(p.ratio) or p.ratio < 0.0:
                    _violation(out, "BadRatio", path, f"segment ratio {p.ratio} must be finite and >= 0")


def _validate_attempt(a: ProofAttempt, path: str, out: list[Violation]) -> None:
    for fld, value in (("prover", a.prover), ("version", a.version), ("method", a.method)):
        if not ATTEMPT_FIELD_RE.match(value):
            _violation(out, "BadName", f"{path}/{fld}", f"invalid {fld} {value!r} (composes a directory name)")
    for section, (_record, code, zero_ok, children) in PROOF_INFO_SECTIONS.items():
        record = getattr(a, section)
        for tag, fld, as_type in children:
            value = getattr(record, fld)
            if as_type is str or value is None:
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

    out: list[Violation] = []
    if problem.info is not None:
        _validate_info(problem.info, out)
    _validate_construction(problem.construction, out)
    if problem.conjecture is not None:
        _validate_conjecture(problem.conjecture, problem.construction, out)
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


def validate_info(info: ProblemInfo) -> list[Violation]:
    """Violations of the generic-information invariants alone."""

    out: list[Violation] = []
    _validate_info(info, out)
    return out


def validate_construction(k: Construction) -> list[Violation]:
    """Violations of the construction invariants alone (ids, arities,
    kinds, straight-line order, element/constraint bijection)."""

    out: list[Violation] = []
    _validate_construction(k, out)
    return out


def validate_conjecture(c: Conjecture, k: Construction | None = None) -> list[Violation]:
    """Violations of the conjecture invariants; id resolution is checked
    only when a construction is supplied."""

    out: list[Violation] = []
    _validate_conjecture(c, k, out)
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
