"""Codecs for the four XML document kinds of the format.

Parsing is built on expat with byte offsets so opaque payloads (statement,
bibentry, display, unknown constraints) are captured from the source
byte-exactly.  Serialization is canonical: UTF-8, LF, two-space indentation,
lexicographically sorted attributes, opaque payloads emitted verbatim.  The
concrete element shapes are normative companions of this package and are
written down in docs/schema/ (one schema per document kind).

``canonicalize(kind, data)`` is serialize-after-parse and is idempotent;
``validate_document`` reports all structural violations instead of stopping
at the first.
"""

from __future__ import annotations

import enum
import re
import xml.parsers.expat
from dataclasses import dataclass, field

from .errors import CodecError
from .model import (
    NUMBER_RE,
    PREDICATE_NAMES,
    PREDICATES,
    PROOF_INFO_SECTIONS,
    TERM_NAMES,
    TERMS,
    BibEntry,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Predicate,
    ProblemInfo,
    ProofAttempt,
    ProofStatus,
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    format_number,
    predicate_point_ids,
    validate_attempt,
    validate_conjecture,
    validate_construction,
    validate_info,
)

__all__ = [
    "DocumentKind",
    "canonicalize",
    "parse_conjecture",
    "parse_construction",
    "parse_information",
    "parse_proof_info",
    "serialize_conjecture",
    "serialize_construction",
    "serialize_information",
    "serialize_proof_info",
    "validate_document",
]


class DocumentKind(enum.Enum):
    INFORMATION = "information"
    CONSTRUCTION = "construction"
    CONJECTURE = "conjecture"
    PROOF_INFO = "proof_info"


_INT_RE = re.compile(r"[+-]?\d+\Z")


# ---------------------------------------------------------------------------
# Raw parse: element tree with byte offsets into the source


@dataclass
class _RawNode:
    """One element of the raw tree.  Only opaque payloads need source bytes,
    so tag ends are found when ``raw`` or ``inner`` is called."""

    tag: str
    attrs: dict[str, str]
    children: list["_RawNode"] = field(default_factory=list)
    text: str = ""
    start: int = -1      # offset of '<' of the start tag
    end_event: int = -1  # offset at the end event: '<' of the end tag unless empty

    def raw(self, data: bytes) -> bytes:
        tag_end = _find_tag_end(data, self.start)
        if data[tag_end - 1] != 0x2F:  # not '/>': the element has an end tag
            tag_end = _find_tag_end(data, self.end_event)
        return data[self.start : tag_end + 1]

    def inner(self, data: bytes) -> bytes:
        tag_end = _find_tag_end(data, self.start)
        if data[tag_end - 1] == 0x2F:  # '/>': empty-element tag
            return b""
        return data[tag_end + 1 : self.end_event].strip()

    def ids(self) -> list[str]:
        return self.text.split()


def _find_tag_end(data: bytes, start: int) -> int:
    """Offset of the '>' closing the tag that starts at ``start``; skips
    quoted attribute values."""

    quote = 0
    j = start
    while j < len(data):
        ch = data[j]
        if quote:
            if ch == quote:
                quote = 0
        elif ch in (0x22, 0x27):  # '"' or "'"
            quote = ch
        elif ch == 0x3E:  # '>'
            return j
        j += 1
    raise ValueError("unterminated tag")


def _parse_raw(data: bytes) -> _RawNode:
    """Parse ``data`` into a raw tree; raises expat.ExpatError, or
    LookupError when the XML declaration names an unknown encoding."""

    parser = xml.parsers.expat.ParserCreate()
    roots: list[_RawNode] = []
    stack: list[_RawNode] = []

    def on_start(name: str, attrs: dict[str, str]) -> None:
        node = _RawNode(tag=name, attrs=attrs, start=parser.CurrentByteIndex)
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)

    def on_end(name: str) -> None:
        stack.pop().end_event = parser.CurrentByteIndex

    def on_chars(text: str) -> None:
        if stack:
            stack[-1].text += text

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_chars
    parser.Parse(data, True)
    return roots[0]


# ---------------------------------------------------------------------------
# Analysis support


class _Report(list):
    """Syntax violations found while reading a document; value checks are
    left to the model validators.  ``moved`` maps the model's locator of a
    kept child to its source locator when earlier siblings were dropped;
    ``strangers`` are the unknown child tags the reader skipped."""

    def __init__(self) -> None:
        super().__init__()
        self.moved: dict[str, str] = {}
        self.strangers: list[Violation] = []

    def error(self, code: str, path: str, message: str) -> None:
        self.append(Violation(code, path, message))

    def keep(self, kept: list, item: object, parent: str, tag: str, index: int) -> None:
        """Append ``item``, read from source child ``index`` of ``parent``."""

        if len(kept) != index:
            self.moved[f"{parent}/{tag}[{len(kept)}]"] = f"{parent}/{tag}[{index}]"
        kept.append(item)


def _parse_num(text: str, path: str, rep: _Report) -> float | None:
    if not NUMBER_RE.match(text.strip()):
        rep.error("BadNumber", path, f"malformed number {text.strip()!r}")
        return None
    return float(text)


def _parse_int_text(text: str, path: str, rep: _Report) -> int | None:
    if not _INT_RE.match(text.strip()):
        rep.error("BadNumber", path, f"malformed integer {text.strip()!r}")
        return None
    return int(text)


def _num_attr(node: _RawNode, name: str, path: str, rep: _Report) -> float | None:
    if name not in node.attrs:
        rep.error("ArityError", path, f"<{node.tag}> requires a {name!r} attribute")
        return None
    return _parse_num(node.attrs[name], f"{path}/@{name}", rep)


def _expect_root(root: _RawNode, tag: str, rep: _Report) -> bool:
    if root.tag != tag:
        rep.error("UnknownTag", "/", f"expected root <{tag}>, found <{root.tag}>")
        return False
    return True


def _singletons(root: _RawNode, path: str, allowed: tuple[str, ...], rep: _Report) -> dict[str, _RawNode]:
    """First occurrence of each allowed child; duplicates are violations,
    and strangers are skipped and reported as such."""

    found: dict[str, _RawNode] = {}
    for ch in root.children:
        if ch.tag not in allowed:
            rep.error("UnknownTag", f"{path}/{ch.tag}", f"unknown tag <{ch.tag}>")
            rep.strangers.append(rep[-1])
            continue
        if ch.tag in found:
            rep.error("DuplicateEntry", f"{path}/{ch.tag}", f"repeated <{ch.tag}> element")
            continue
        found[ch.tag] = ch
    return found


# ---------------------------------------------------------------------------
# information.xml


def _analyze_information(root: _RawNode, data: bytes, rep: _Report) -> ProblemInfo | None:
    if not _expect_root(root, "information", rep):
        return None
    kids = _singletons(root, "/information", ("name", "description", "statement", "bibrefs", "keywords"), rep)
    name = kids["name"].text.strip() if "name" in kids else ""
    description = kids["description"].text.strip() if "description" in kids else ""
    statement = kids["statement"].inner(data) if "statement" in kids else b""
    bibrefs: list[BibEntry] = []
    if "bibrefs" in kids:
        for i, ch in enumerate(kids["bibrefs"].children):
            path = f"/information/bibrefs/{ch.tag}[{i}]"
            if ch.tag != "bibentry":
                rep.error("UnknownTag", path, f"expected <bibentry>, found <{ch.tag}>")
                continue
            entry = BibEntry(id=ch.attrs.get("id", ""), payload=ch.inner(data))
            rep.keep(bibrefs, entry, "/information/bibrefs", ch.tag, i)
    keywords: list[str] = []
    if "keywords" in kids:
        for i, ch in enumerate(kids["keywords"].children):
            path = f"/information/keywords/{ch.tag}[{i}]"
            if ch.tag != "keyword":
                rep.error("UnknownTag", path, f"expected <keyword>, found <{ch.tag}>")
                continue
            rep.keep(keywords, ch.text.strip(), "/information/keywords", ch.tag, i)
    return ProblemInfo(
        name=name,
        description=description,
        statement=statement,
        bibrefs=tuple(bibrefs),
        keywords=tuple(keywords),
    )


# ---------------------------------------------------------------------------
# conjecture.xml


def _point_ids(node: _RawNode, want: int, path: str, rep: _Report) -> list[str] | None:
    ids = node.ids()
    if len(ids) != want:
        rep.error("ArityError", path, f"{node.tag} takes {want} point ids, got {len(ids)}")
        return None
    return ids


def _operands(node: _RawNode, path: str, rep: _Report) -> tuple[Term, Term] | None:
    """The two terms of an equal, plus or mult element."""

    if len(node.children) != 2:
        rep.error("ArityError", path, f"{node.tag} takes 2 terms, got {len(node.children)}")
        return None
    left = _analyze_term(node.children[0], f"{path}/{node.children[0].tag}", rep)
    right = _analyze_term(node.children[1], f"{path}/{node.children[1].tag}", rep)
    if left is None or right is None:
        return None
    return left, right


def _analyze_term(node: _RawNode, path: str, rep: _Report) -> Term | None:
    cls = TERMS.get(node.tag)
    if cls is None:
        rep.error("UnknownPredicate", path, f"unknown term <{node.tag}>")
        return None
    if cls is Const:
        value = _num_attr(node, "value", path, rep)
        return None if value is None else Const(value)
    if cls is SegmentLength:
        ids = _point_ids(node, 2, path, rep)
        return None if ids is None else SegmentLength(*ids)
    terms = _operands(node, path, rep)
    return None if terms is None else cls(*terms)


def _analyze_predicate(node: _RawNode, path: str, rep: _Report) -> Predicate | None:
    if node.tag not in PREDICATES:
        rep.error("UnknownPredicate", path, f"unknown predicate <{node.tag}>")
        return None
    cls, want = PREDICATES[node.tag]
    if cls is Equal:
        terms = _operands(node, path, rep)
        return None if terms is None else Equal(*terms)
    ids = _point_ids(node, want, path, rep)
    if ids is None:
        return None
    if cls is not SegmentRatio:
        return cls(*ids)
    if "ratio" not in node.attrs:
        rep.error("BadRatio", path, f"{node.tag} requires a ratio attribute")
        return None
    ratio = _parse_num(node.attrs["ratio"], f"{path}/@ratio", rep)
    return None if ratio is None else SegmentRatio(*ids, ratio=ratio)


def _analyze_conjecture(root: _RawNode, data: bytes, rep: _Report) -> Conjecture | None:
    if not _expect_root(root, "conjecture", rep):
        return None
    kids = _singletons(root, "/conjecture", ("hypothesis", "ndg", "conclusion"), rep)
    sections: dict[str, tuple[Predicate, ...]] = {}
    for section in ("hypothesis", "ndg", "conclusion"):
        preds: list[Predicate] = []
        if section in kids:
            for i, ch in enumerate(kids[section].children):
                p = _analyze_predicate(ch, f"/conjecture/{section}/{ch.tag}[{i}]", rep)
                if p is not None:
                    rep.keep(preds, p, f"/conjecture/{section}", ch.tag, i)
        sections[section] = tuple(preds)
    return Conjecture(
        hypothesis=sections["hypothesis"],
        ndg=sections["ndg"],
        conclusion=sections["conclusion"],
    )


# ---------------------------------------------------------------------------
# intergeo.xml (supported subset)

_ELEMENT_ATTRS = {
    "point": ("x", "y"),
    "line": ("a", "b", "c"),
    "circle": ("cx", "cy", "r"),
}

_CONSTRAINT_TAGS = {kind.value: kind for kind in ConstraintKind if kind is not ConstraintKind.OPAQUE}

# stored-parameter attribute name per parametric constraint
_PARAM_ATTRS = {
    ConstraintKind.POINT_ON_LINE: "parameter",
    ConstraintKind.POINT_ON_CIRCLE: "angle",
}


def _analyze_construction(root: _RawNode, data: bytes, rep: _Report) -> Construction | None:
    if not _expect_root(root, "construction", rep):
        return None
    kids = _singletons(root, "/construction", ("elements", "constraints", "display"), rep)
    if "elements" not in kids:
        rep.error("MissingElementsPart", "/construction/elements", "the elements part is required")
        return None
    elements: list[ElementInstance] = []
    for i, ch in enumerate(kids["elements"].children):
        path = f"/construction/elements/{ch.tag}[{i}]"
        if ch.tag not in _ELEMENT_ATTRS:
            rep.error("UnknownTag", path, f"unsupported element kind <{ch.tag}>")
            continue
        coords: list[float] = []
        ok = True
        for attr in _ELEMENT_ATTRS[ch.tag]:
            value = _num_attr(ch, attr, path, rep)
            if value is None:
                ok = False
            else:
                coords.append(value)
        if ok:
            element = ElementInstance(id=ch.attrs.get("id", ""), kind=GeoKind(ch.tag), coords=tuple(coords))
            rep.keep(elements, element, "/construction/elements", ch.tag, i)
    constraints: list[Constraint] = []
    if "constraints" in kids:
        for i, ch in enumerate(kids["constraints"].children):
            path = f"/construction/constraints/{ch.tag}[{i}]"
            out_id = ch.attrs.get("out", "")
            if not out_id:
                rep.error("BadId", path, f"constraint <{ch.tag}> requires an out attribute")
                continue
            kind = _CONSTRAINT_TAGS.get(ch.tag)
            if kind is None:
                c = Constraint(output=out_id, kind=ConstraintKind.OPAQUE, opaque_tag=ch.tag, opaque_payload=ch.raw(data))
            else:
                parameter = None
                param_attr = _PARAM_ATTRS.get(kind)
                if param_attr in ch.attrs:
                    parameter = _parse_num(ch.attrs[param_attr], f"{path}/@{param_attr}", rep)
                c = Constraint(output=out_id, kind=kind, inputs=tuple(ch.ids()), parameter=parameter)
            rep.keep(constraints, c, "/construction/constraints", ch.tag, i)
    display = kids["display"].raw(data) if "display" in kids else b""
    return Construction(elements=tuple(elements), constraints=tuple(constraints), display=display)


# ---------------------------------------------------------------------------
# proofInfo.xml

_STATUS_BY_TEXT = {status.value: status for status in ProofStatus}

def _analyze_proof_info(root: _RawNode, data: bytes, rep: _Report) -> ProofAttempt | None:
    if not _expect_root(root, "proof_info", rep):
        return None
    kids = _singletons(root, "/proof_info", ("prover", "version", "method", "status", *PROOF_INFO_SECTIONS), rep)
    identity = {fld: kids[fld].text.strip() if fld in kids else "" for fld in ("prover", "version", "method")}
    status_text = kids["status"].text.strip() if "status" in kids else ""
    status = _STATUS_BY_TEXT.get(status_text.lower())
    if status is None:
        rep.error("UnknownStatus", "/proof_info/status", f"unknown status {status_text!r}")
        status = ProofStatus.UNKNOWN

    # range checks (non-negative, positive) come from model validation
    records: dict[str, object] = {}
    for section, (record, _code, _zero_ok, children) in PROOF_INFO_SECTIONS.items():
        values: dict[str, object] = {}
        if section in kids:
            parent = f"/proof_info/{section}"
            found = _singletons(kids[section], parent, tuple(tag for tag, _f, _t in children), rep)
            for tag, fld, as_type in children:
                if tag not in found:
                    continue
                text = found[tag].text
                if as_type is str:
                    values[fld] = text.strip()
                elif as_type is int:
                    values[fld] = _parse_int_text(text, f"{parent}/{tag}", rep)
                else:
                    values[fld] = _parse_num(text, f"{parent}/{tag}", rep)
        records[section] = record(**values)
    return ProofAttempt(status=status, **identity, **records)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Public parse entry points

_ANALYZERS = {
    DocumentKind.INFORMATION: _analyze_information,
    DocumentKind.CONJECTURE: _analyze_conjecture,
    DocumentKind.CONSTRUCTION: _analyze_construction,
    DocumentKind.PROOF_INFO: _analyze_proof_info,
}


# Readers of these kinds skip unknown child tags (see _singletons);
# validate_document still reports them.
_FORGIVES_STRANGERS = (DocumentKind.INFORMATION, DocumentKind.PROOF_INFO)


def _model_violations(kind: DocumentKind, value, construction: Construction | None) -> list[Violation]:
    if value is None:
        return []
    if kind is DocumentKind.INFORMATION:
        return validate_info(value)
    if kind is DocumentKind.CONSTRUCTION:
        return validate_construction(value)
    if kind is DocumentKind.CONJECTURE:
        return validate_conjecture(value, construction)
    return validate_attempt(value)


def _read(kind: DocumentKind, data: bytes, construction: Construction | None = None):
    """The value read from ``data``, every violation and the skipped
    strangers among them.  Violations are syntax ones from the reader, then
    value ones from the model validators, each located at its source tag and
    child index; a conjecture's ids are resolved against ``construction``
    when one is given."""

    rep = _Report()
    try:
        root = _parse_raw(data)
    except (xml.parsers.expat.ExpatError, LookupError) as exc:
        rep.error("MalformedXml", "/", f"XML parse error: {exc}")
        return None, rep, []
    value = _ANALYZERS[kind](root, data, rep)
    model = [
        Violation(v.code, rep.moved[v.path], v.message) if v.path in rep.moved else v
        for v in _model_violations(kind, value, construction)
    ]
    return value, rep + model, rep.strangers


def _parse(kind: DocumentKind, data: bytes):
    value, violations, strangers = _read(kind, data)
    if kind in _FORGIVES_STRANGERS:
        violations = [v for v in violations if v not in strangers]
    if violations:
        raise CodecError(violations)
    return value


def parse_information(data: bytes) -> ProblemInfo:
    """Parse information.xml; unknown child tags are skipped, a missing
    name fails."""

    return _parse(DocumentKind.INFORMATION, data)


def parse_conjecture(data: bytes) -> Conjecture:
    """Parse conjecture.xml; unknown tags are errors."""

    return _parse(DocumentKind.CONJECTURE, data)


def parse_construction(data: bytes) -> Construction:
    """Parse intergeo.xml (supported subset); unknown constraint elements
    become OPAQUE constraints carrying their source bytes verbatim."""

    return _parse(DocumentKind.CONSTRUCTION, data)


def parse_proof_info(data: bytes) -> ProofAttempt:
    """Parse proofInfo.xml; status text maps case-insensitively and unknown
    child tags are skipped."""

    return _parse(DocumentKind.PROOF_INFO, data)


def validate_document(kind: DocumentKind, data: bytes) -> list[Violation]:
    """All structural violations of one document, unknown tags included,
    without parse commitment."""

    return _read(kind, data)[1]


# ---------------------------------------------------------------------------
# Canonical serialization


def _esc_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _esc_attr(s: str) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    return s.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = [b'<?xml version="1.0" encoding="UTF-8"?>\n']
        self.depth = 0

    def _tag_open(self, tag: str, attrs: dict[str, str] | None) -> str:
        rendered = ""
        if attrs:
            rendered = "".join(f' {k}="{_esc_attr(v)}"' for k, v in sorted(attrs.items()))
        return f"<{tag}{rendered}"

    def line(self, text: str) -> None:
        self.parts.append(("  " * self.depth + text + "\n").encode("utf-8"))

    def open(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self.line(self._tag_open(tag, attrs) + ">")
        self.depth += 1

    def close(self, tag: str) -> None:
        self.depth -= 1
        self.line(f"</{tag}>")

    def empty(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self.line(self._tag_open(tag, attrs) + "/>")

    def leaf(self, tag: str, text: str, attrs: dict[str, str] | None = None) -> None:
        self.line(self._tag_open(tag, attrs) + ">" + _esc_text(text) + f"</{tag}>")

    def payload(self, tag: str, payload: bytes, attrs: dict[str, str] | None = None) -> None:
        if not payload:
            self.empty(tag, attrs)
            return
        prefix = ("  " * self.depth + self._tag_open(tag, attrs) + ">").encode("utf-8")
        self.parts.append(prefix + payload + f"</{tag}>\n".encode("utf-8"))

    def raw(self, element: bytes) -> None:
        self.parts.append(("  " * self.depth).encode("utf-8") + element + b"\n")

    def bytes(self) -> bytes:
        return b"".join(self.parts)


def _require_valid(violations: list[Violation]) -> None:
    # serializers refuse invalid values, mirroring the model violations
    if violations:
        raise CodecError(violations)


# Each serialize_* is its model check plus a _write_* writer; callers that
# have just validated the value call the writer directly.


def serialize_information(info: ProblemInfo) -> bytes:
    _require_valid(validate_info(info))
    return _write_information(info)


def _write_information(info: ProblemInfo) -> bytes:
    w = _Writer()
    w.open("information")
    w.leaf("name", info.name)
    if info.description:
        w.leaf("description", info.description)
    if info.statement:
        w.payload("statement", info.statement)
    if info.bibrefs:
        w.open("bibrefs")
        for entry in info.bibrefs:
            w.payload("bibentry", entry.payload, {"id": entry.id})
        w.close("bibrefs")
    if info.keywords:
        w.open("keywords")
        for kw in info.keywords:
            w.leaf("keyword", kw)
        w.close("keywords")
    w.close("information")
    return w.bytes()


def _write_operands(w: _Writer, tag: str, left: Term, right: Term) -> None:
    w.open(tag)
    _write_term(w, left)
    _write_term(w, right)
    w.close(tag)


def _write_term(w: _Writer, t: Term) -> None:
    tag = TERM_NAMES[type(t)]
    if isinstance(t, Const):
        w.empty(tag, {"value": format_number(t.value)})
    elif isinstance(t, SegmentLength):
        w.leaf(tag, f"{t.a} {t.b}")
    else:
        _write_operands(w, tag, t.left, t.right)


def _write_predicate(w: _Writer, p: Predicate) -> None:
    tag = PREDICATE_NAMES[type(p)]
    if isinstance(p, Equal):
        _write_operands(w, tag, p.left, p.right)
    else:
        attrs = {"ratio": format_number(p.ratio)} if isinstance(p, SegmentRatio) else None
        w.leaf(tag, " ".join(predicate_point_ids(p)), attrs)


def serialize_conjecture(c: Conjecture) -> bytes:
    _require_valid(validate_conjecture(c, None))
    return _write_conjecture(c)


def _write_conjecture(c: Conjecture) -> bytes:
    w = _Writer()
    w.open("conjecture")
    for section, preds in (("hypothesis", c.hypothesis), ("ndg", c.ndg), ("conclusion", c.conclusion)):
        if not preds:
            continue  # empty sections are omitted entirely
        w.open(section)
        for p in preds:
            _write_predicate(w, p)
        w.close(section)
    w.close("conjecture")
    return w.bytes()


def serialize_construction(k: Construction) -> bytes:
    _require_valid(validate_construction(k))
    return _write_construction(k)


def _write_construction(k: Construction) -> bytes:
    w = _Writer()
    w.open("construction")
    if k.elements:
        w.open("elements")
        for e in k.elements:
            attrs = {"id": e.id}
            for name, value in zip(_ELEMENT_ATTRS[e.kind.value], e.coords):
                attrs[name] = format_number(value)
            w.empty(e.kind.value, attrs)
        w.close("elements")
    else:
        w.empty("elements")
    if k.constraints:
        w.open("constraints")
        for c in k.constraints:
            if c.kind is ConstraintKind.OPAQUE:
                w.raw(c.opaque_payload or b"")
                continue
            attrs = {"out": c.output}
            param_attr = _PARAM_ATTRS.get(c.kind)
            if param_attr is not None and c.parameter is not None:
                attrs[param_attr] = format_number(c.parameter)
            if c.inputs:
                w.leaf(c.kind.value, " ".join(c.inputs), attrs)
            else:
                w.empty(c.kind.value, attrs)
        w.close("constraints")
    if k.display:
        w.raw(k.display)
    w.close("construction")
    return w.bytes()


def serialize_proof_info(a: ProofAttempt) -> bytes:
    _require_valid(validate_attempt(a))
    return _write_proof_info(a)


def _write_proof_info(a: ProofAttempt) -> bytes:
    w = _Writer()
    w.open("proof_info")
    w.leaf("prover", a.prover)
    w.leaf("version", a.version)
    w.leaf("method", a.method)
    w.leaf("status", a.status.value)
    for section, (_record, _code, _zero_ok, children) in PROOF_INFO_SECTIONS.items():
        record = getattr(a, section)
        values = [(tag, as_type, getattr(record, fld)) for tag, fld, as_type in children]
        if all(value is None for _tag, _type, value in values):
            continue  # empty sections are omitted entirely
        w.open(section)
        for tag, as_type, value in values:
            if value is not None:
                w.leaf(tag, format_number(value) if as_type is float else str(as_type(value)))
        w.close(section)
    w.close("proof_info")
    return w.bytes()


_WRITERS = {
    DocumentKind.INFORMATION: _write_information,
    DocumentKind.CONJECTURE: _write_conjecture,
    DocumentKind.CONSTRUCTION: _write_construction,
    DocumentKind.PROOF_INFO: _write_proof_info,
}


def canonicalize(kind: DocumentKind, data: bytes) -> bytes:
    """Serialize-after-parse; idempotent, and the identity on canonical
    documents."""

    # the parse has validated the value
    return _WRITERS[kind](_parse(kind, data))
