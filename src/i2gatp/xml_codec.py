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

import codecs
import enum
import re
import xml.parsers.expat
from collections.abc import Callable

from .errors import CodecError
from .model import (
    CONSTRAINT_SIGNATURES,
    ELEMENT_COORDS,
    MAX_TERM_DEPTH,
    MAX_XML_DEPTH,
    MAX_XML_ELEMENTS,
    NUMBER_RE,
    PREDICATE_NAMES,
    PREDICATES,
    PROOF_INFO_SECTIONS,
    TERM_NAMES,
    TERMS,
    XML_READ_ERRORS,
    BibEntry,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    Predicate,
    ProblemInfo,
    ProofAttempt,
    ProofStatus,
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    _refuse,
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
# The XML declaration that every document the codec writes starts with
_DECLARATION = b'<?xml version="1.0" encoding="UTF-8"?>\n'
# A tag through its '>', quoted values skipped; linear: each alternative starts on its own byte
_TAG = re.compile(rb"""(?:[^"'>]|"[^"]*"|'[^']*')*>""")


# ---------------------------------------------------------------------------
# Raw parse: element tree with byte offsets into the source


class _RawNode:
    """One element of the raw tree.  Only opaque payloads need source bytes,
    so tag ends are found when ``raw`` or ``inner`` is called."""

    __slots__ = ("tag", "attrs", "children", "text", "start", "end_event")

    def __init__(self, tag: str, attrs: dict[str, str], start: int) -> None:
        self.tag = tag
        self.attrs = attrs
        self.children: list[_RawNode] = []
        self.text = ""
        self.start = start  # offset of '<' of the start tag
        self.end_event = -1  # offset at the end event: '<' of the end tag unless empty

    def raw(self, data: bytes) -> bytes:
        end = _TAG.match(data, self.start).end()
        if data[end - 2] != 0x2F:  # not '/>': the element has an end tag, which holds no quotes
            end = data.index(b">", self.end_event) + 1
        return data[self.start : end]

    def inner(self, data: bytes) -> bytes:
        end = _TAG.match(data, self.start).end()
        if data[end - 2] == 0x2F:  # '/>': empty-element tag
            return b""
        return data[end : self.end_event].strip()

    def ids(self) -> list[str]:
        return self.text.split()


def _parse_raw(data: bytes) -> tuple[_RawNode, bytes]:
    """Parse ``data`` into a raw tree, with the UTF-8 source that its offsets
    index: ``data`` itself, or, when expat read ``data`` in another encoding,
    ``data`` transcoded to UTF-8 once and the tree built again from it, so
    that opaque payloads are UTF-8 like every document the codec writes.
    Raises one of model.XML_READ_ERRORS when expat cannot read ``data``."""

    if data.startswith(_DECLARATION):  # UTF-8, as every document the codec writes
        return _build_raw(data), data
    declared: list[str | None] = [None]
    root = _build_raw(data, declared)
    if data[:2] in (b"\xff\xfe", b"\xfe\xff"):  # a byte order mark
        codec = "utf-16"
    elif data[:2] in (b"<\x00", b"\x00<"):
        codec = "utf-16-le" if data[0] else "utf-16-be"
    else:
        codec = codecs.lookup(declared[0] or "utf-8").name
    if codec in ("utf-8", "ascii"):
        return root, data
    text = data.removeprefix(b"\xef\xbb\xbf").decode(codec)  # expat skips a UTF-8 byte order mark
    return _build_raw(text), text.encode("utf-8")


def _build_raw(source: bytes | str, declared: list[str | None] | None = None) -> _RawNode:
    """The raw tree of ``source``, a str read as UTF-8; given ``declared``,
    the encoding that its XML declaration names, if any, is put there.
    Raises ValueError past MAX_XML_DEPTH or MAX_XML_ELEMENTS."""

    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True  # one call per text run, or per 8 KiB of it
    top = _RawNode("", {}, -1)  # the parent of the root element
    stack = [top]
    push, pop = stack.append, stack.pop
    count = 0

    def on_decl(_version: str, encoding: str | None, _standalone: int) -> None:
        declared[0] = encoding

    def on_start(name: str, attrs: dict[str, str]) -> None:
        nonlocal count
        count += 1
        if count > MAX_XML_ELEMENTS:
            raise ValueError(f"more than {MAX_XML_ELEMENTS} elements")
        if len(stack) > MAX_XML_DEPTH:  # len(stack) is the new node's depth, the root's being 1
            raise ValueError(f"more than {MAX_XML_DEPTH} levels of elements")
        node = _RawNode(name, attrs, parser.CurrentByteIndex)
        stack[-1].children.append(node)
        push(node)

    def on_end(name: str) -> None:
        pop().end_event = parser.CurrentByteIndex

    def on_chars(text: str) -> None:
        stack[-1].text += text

    if declared is not None:
        parser.XmlDeclHandler = on_decl
    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_chars
    parser.Parse(source, True)
    return top.children[0]


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

    def keep(self, kept: list, item: object, parent: str, node: _RawNode, index: int) -> None:
        """Append ``item``, read from ``node``, source child ``index`` of
        ``parent``."""

        if len(kept) != index:
            self.moved[_at(parent, len(kept), node)] = _at(parent, index, node)
        kept.append(item)


def _at(parent: str, index: int, node: _RawNode) -> str:
    """The locator of ``node`` as child ``index`` of ``parent``.  The
    readers build one only where they record it: a valid document needs
    none."""

    return f"{parent}/{node.tag}[{index}]"


# The readers take a number in one step when its text matches NUMBER_RE or
# _INT_RE as it stands; _parse_num, _parse_int_text and _num_attr read any
# other text, reporting it at its locator when it is not a number.


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
        parent = "/information/bibrefs"
        for i, ch in enumerate(kids["bibrefs"].children):
            if ch.tag != "bibentry":
                rep.error("UnknownTag", _at(parent, i, ch), f"expected <bibentry>, found <{ch.tag}>")
                continue
            entry = BibEntry(id=ch.attrs.get("id", ""), payload=ch.inner(data))
            rep.keep(bibrefs, entry, parent, ch, i)
    keywords: list[str] = []
    if "keywords" in kids:
        parent = "/information/keywords"
        for i, ch in enumerate(kids["keywords"].children):
            if ch.tag != "keyword":
                rep.error("UnknownTag", _at(parent, i, ch), f"expected <keyword>, found <{ch.tag}>")
                continue
            rep.keep(keywords, ch.text.strip(), parent, ch, i)
    return ProblemInfo(
        name=name,
        description=description,
        statement=statement,
        bibrefs=tuple(bibrefs),
        keywords=tuple(keywords),
    )


# ---------------------------------------------------------------------------
# conjecture.xml


# A conjecture's nodes are located by ``at``, a function that builds the
# node's locator; it is called only when a violation is recorded there.


def _point_ids(node: _RawNode, want: int, at: Callable[[], str], rep: _Report) -> list[str] | None:
    ids = node.ids()
    if len(ids) != want:
        rep.error("ArityError", at(), f"{node.tag} takes {want} point ids, got {len(ids)}")
        return None
    return ids


def _operands(node: _RawNode, at: Callable[[], str], rep: _Report, depth: int) -> tuple[Term, Term] | None:
    """The two terms of an equal, plus or mult element, at term depth
    ``depth``; a term deeper than MAX_TERM_DEPTH is one ArityError."""

    if len(node.children) != 2:
        rep.error("ArityError", at(), f"{node.tag} takes 2 terms, got {len(node.children)}")
        return None
    first, second = node.children
    # the model bounds a built term too; the reader stops first, since
    # building a deeper term would recurse without bound
    if depth > MAX_TERM_DEPTH:
        rep.error("ArityError", f"{at()}/{first.tag}", f"term nested deeper than {MAX_TERM_DEPTH} levels")
        return None
    left = _analyze_term(first, lambda: f"{at()}/{first.tag}", rep, depth)
    right = _analyze_term(second, lambda: f"{at()}/{second.tag}", rep, depth)
    if left is None or right is None:
        return None
    return left, right


def _analyze_term(node: _RawNode, at: Callable[[], str], rep: _Report, depth: int) -> Term | None:
    cls = TERMS.get(node.tag)
    if cls is None:
        rep.error("UnknownPredicate", at(), f"unknown term <{node.tag}>")
        return None
    if cls is Const:
        text = node.attrs.get("value", "")
        value = float(text) if NUMBER_RE.match(text) else _num_attr(node, "value", at(), rep)
        return None if value is None else Const(value)
    if cls is SegmentLength:
        ids = _point_ids(node, 2, at, rep)
        return None if ids is None else SegmentLength(*ids)
    terms = _operands(node, at, rep, depth + 1)
    return None if terms is None else cls(*terms)


def _analyze_predicate(node: _RawNode, at: Callable[[], str], rep: _Report) -> Predicate | None:
    if node.tag not in PREDICATES:
        rep.error("UnknownPredicate", at(), f"unknown predicate <{node.tag}>")
        return None
    cls, want = PREDICATES[node.tag]
    if cls is Equal:
        terms = _operands(node, at, rep, 1)
        return None if terms is None else Equal(*terms)
    ids = _point_ids(node, want, at, rep)
    if ids is None:
        return None
    if cls is not SegmentRatio:
        return cls(*ids)
    if "ratio" not in node.attrs:
        rep.error("BadRatio", at(), f"{node.tag} requires a ratio attribute")
        return None
    text = node.attrs["ratio"]
    ratio = float(text) if NUMBER_RE.match(text) else _parse_num(text, f"{at()}/@ratio", rep)
    return None if ratio is None else SegmentRatio(*ids, ratio=ratio)


def _analyze_conjecture(root: _RawNode, data: bytes, rep: _Report) -> Conjecture | None:
    if not _expect_root(root, "conjecture", rep):
        return None
    kids = _singletons(root, "/conjecture", ("hypothesis", "ndg", "conclusion"), rep)
    sections: dict[str, tuple[Predicate, ...]] = {}
    for section in ("hypothesis", "ndg", "conclusion"):
        preds: list[Predicate] = []
        if section in kids:
            parent = f"/conjecture/{section}"
            for i, ch in enumerate(kids[section].children):
                p = _analyze_predicate(ch, lambda: _at(parent, i, ch), rep)
                if p is not None:
                    rep.keep(preds, p, parent, ch, i)
        sections[section] = tuple(preds)
    return Conjecture(
        hypothesis=sections["hypothesis"],
        ndg=sections["ndg"],
        conclusion=sections["conclusion"],
    )


# ---------------------------------------------------------------------------
# intergeo.xml (supported subset)

# tag -> (kind, coordinate attributes), and of each supported step, tag ->
# (kind, parameter attribute); keyed by tag, so a read does not hash an enum
_ELEMENT_TAGS = {kind.value: (kind, coords) for kind, coords in ELEMENT_COORDS.items()}
_STEP_TAGS = {kind.value: (kind, sig[2]) for kind, sig in CONSTRAINT_SIGNATURES.items()}
_PARAMETER_ATTRS = tuple(sorted({sig[2] for sig in CONSTRAINT_SIGNATURES.values()} - {None}))


def _analyze_construction(root: _RawNode, data: bytes, rep: _Report) -> Construction | None:
    if not _expect_root(root, "construction", rep):
        return None
    kids = _singletons(root, "/construction", ("elements", "constraints", "display"), rep)
    if "elements" not in kids:
        rep.error("MissingElementsPart", "/construction/elements", "the elements part is required")
        return None
    elements: list[ElementInstance] = []
    parent = "/construction/elements"
    for i, ch in enumerate(kids["elements"].children):
        if ch.tag not in _ELEMENT_TAGS:
            rep.error("UnknownTag", _at(parent, i, ch), f"unsupported element kind <{ch.tag}>")
            continue
        kind, names = _ELEMENT_TAGS[ch.tag]
        attrs = ch.attrs
        coords = []
        for name in names:
            text = attrs.get(name, "")
            coords.append(float(text) if NUMBER_RE.match(text) else _num_attr(ch, name, _at(parent, i, ch), rep))
        if None not in coords:
            element = ElementInstance(id=attrs.get("id", ""), kind=kind, coords=tuple(coords))
            rep.keep(elements, element, parent, ch, i)
    constraints: list[Constraint] = []
    if "constraints" in kids:
        parent = "/construction/constraints"
        for i, ch in enumerate(kids["constraints"].children):
            attrs = ch.attrs
            out_id = attrs.get("out", "")
            if not out_id:
                rep.error("BadId", _at(parent, i, ch), f"constraint <{ch.tag}> requires an out attribute")
                continue
            if ch.tag not in _STEP_TAGS:
                c = Constraint(output=out_id, kind=ConstraintKind.OPAQUE, opaque_tag=ch.tag, opaque_payload=ch.raw(data))
            else:
                kind, param_attr = _STEP_TAGS[ch.tag]
                if param_attr is None:  # keep a stray parameter, so the model reports it as ArityError
                    param_attr = next(filter(attrs.__contains__, _PARAMETER_ATTRS), None)
                parameter = None
                if param_attr in attrs:
                    text = attrs[param_attr]
                    parameter = float(text) if NUMBER_RE.match(text) else _parse_num(text, f"{_at(parent, i, ch)}/@{param_attr}", rep)
                c = Constraint(output=out_id, kind=kind, inputs=tuple(ch.ids()), parameter=parameter)
            rep.keep(constraints, c, parent, ch, i)
    display = kids["display"].raw(data) if "display" in kids else b""
    return Construction(elements=tuple(elements), constraints=tuple(constraints), display=display)


# ---------------------------------------------------------------------------
# proofInfo.xml

_STATUS_BY_TEXT = {status.value: status for status in ProofStatus}
_IDENTITY_TAGS = ("prover", "version", "method")


def _identity(root: _RawNode) -> tuple[str, str, str]:
    """The (prover, version, method) of a <proof_info> root: the stripped
    text of the first child of each tag, as _singletons picks it, and ""
    for a missing one."""

    first = {ch.tag: ch.text for ch in reversed(root.children)}
    prover, version, method = (first.get(tag, "").strip() for tag in _IDENTITY_TAGS)
    return prover, version, method


def _proof_identity(data: bytes) -> tuple[str, str, str] | None:
    """The identity of the attempt the proofInfo.xml reader reads from
    ``data``, with nothing else analysed; None when it reads no attempt
    (unreadable XML, or a root other than <proof_info>)."""

    try:
        root = _parse_raw(data)[0]
    except XML_READ_ERRORS:
        return None
    return _identity(root) if root.tag == "proof_info" else None


def _analyze_proof_info(root: _RawNode, data: bytes, rep: _Report) -> ProofAttempt | None:
    if not _expect_root(root, "proof_info", rep):
        return None
    kids = _singletons(root, "/proof_info", (*_IDENTITY_TAGS, "status", *PROOF_INFO_SECTIONS), rep)
    identity = dict(zip(_IDENTITY_TAGS, _identity(root)))
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
                    values[fld] = int(text) if _INT_RE.match(text) else _parse_int_text(text, f"{parent}/{tag}", rep)
                else:
                    values[fld] = float(text) if NUMBER_RE.match(text) else _parse_num(text, f"{parent}/{tag}", rep)
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
    """The value read from ``data``, every violation, and those a parse
    refuses (all but the strangers ``_FORGIVES_STRANGERS`` readers skip).
    Violations are syntax ones from the reader, then value ones from the
    model validators, each located at its source tag and child index; a
    conjecture's ids are resolved against ``construction`` when given."""

    rep = _Report()
    try:
        root, data = _parse_raw(data)
    except XML_READ_ERRORS as exc:
        rep.error("MalformedXml", "/", f"XML parse error: {exc}")
        return None, rep, rep
    value = _ANALYZERS[kind](root, data, rep)
    model = [
        Violation(v.code, rep.moved[v.path], v.message) if v.path in rep.moved else v
        for v in _model_violations(kind, value, construction)
    ]
    violations = rep + model
    forgiven = rep.strangers if kind in _FORGIVES_STRANGERS else ()
    return value, violations, [v for v in violations if v not in forgiven]


def _parse(kind: DocumentKind, data: bytes):
    value, _violations, refused = _read(kind, data)
    if refused:
        raise CodecError(refused)
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
        self.parts: list[bytes] = [_DECLARATION]
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


# Each serialize_* is its model check plus a _write_* writer; callers that
# have just validated the value call the writer directly.


def serialize_information(info: ProblemInfo) -> bytes:
    _refuse(validate_info(info))
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
    _refuse(validate_conjecture(c, None))
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
    _refuse(validate_construction(k))
    return _write_construction(k)


def _write_construction(k: Construction) -> bytes:
    w = _Writer()
    w.open("construction")
    if k.elements:
        w.open("elements")
        for e in k.elements:
            attrs = dict(zip(ELEMENT_COORDS[e.kind], map(format_number, e.coords)), id=e.id)
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
            if c.parameter is not None:  # validated: only a step with a parameter attribute has one
                attrs[CONSTRAINT_SIGNATURES[c.kind][2]] = format_number(c.parameter)
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
    _refuse(validate_attempt(a))
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
