"""Codecs for the four XML document kinds of the format.

Parsing is built on expat with byte offsets so opaque payloads (statement,
bibentry, display, unknown constraints) are captured from the source
byte-exactly; intergeo.xml is read in one pass, no node per element or step.
Serialization is canonical: UTF-8, LF, two-space indentation,
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
from typing import NamedTuple

from .errors import CodecError
from .model import (
    ATTEMPT_IDENTITY,
    CONJECTURE_SECTIONS,
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
    _ELEMENT_TAGS,
    _STEP_TAGS,
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


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
# The XML declaration that every document the codec writes starts with
_DECLARATION = b'<?xml version="1.0" encoding="UTF-8"?>\n'
# A tag through its '>', quoted values skipped; linear: each alternative starts on its own byte
_TAG = re.compile(rb"""(?:[^"'>]|"[^"]*"|'[^']*')*>""")


# ---------------------------------------------------------------------------
# Raw parse: element tree with byte offsets into the source


class _RawNode:
    """One element of the raw tree, built by ``_build_raw`` with no
    ``__init__`` call: ``tag``, ``attrs``, ``children``, ``text`` (its text
    runs joined), ``start`` (the offset of '<' of its start tag) and
    ``end_event`` (the offset at its end event: '<' of the end tag unless
    the element is empty).  Only opaque payloads need source bytes, so tag
    ends are found when ``_raw`` or ``inner`` is called.  With leaf readers
    the tree is the root and its parts, each with a _Part, and no text."""

    __slots__ = ("tag", "attrs", "children", "text", "start", "end_event")

    def inner(self, data: bytes) -> bytes:
        end = _TAG.match(data, self.start).end()
        if data[end - 2] == 0x2F:  # '/>': empty-element tag
            return b""
        return data[end : self.end_event].strip()


def _raw(data: bytes, start: int, end_event: int) -> bytes:
    end = _TAG.match(data, start).end()
    if data[end - 2] != 0x2F:  # not '/>': the element has an end tag, which holds no quotes
        end = data.index(b">", end_event) + 1
    return data[start:end]


def _parse_raw(data: bytes, leaves: dict | None = None) -> tuple[_RawNode, bytes]:
    """Parse ``data`` into a raw tree, with the UTF-8 source that its offsets
    index: ``data`` itself, or, when expat read ``data`` in another encoding,
    ``data`` transcoded to UTF-8 once and the tree built again from it, so
    that opaque payloads are UTF-8 like every document the codec writes;
    the first pass then only checks ``data`` and learns its encoding.
    Raises one of model.XML_READ_ERRORS when expat cannot read ``data``."""

    if data.startswith(_DECLARATION):  # UTF-8, as every document the codec writes
        return _build_raw(data, leaves), data
    if data[:2] in (b"\xff\xfe", b"\xfe\xff"):  # a byte order mark
        codec = ["utf-16"]
    elif data[:2] in (b"<\x00", b"\x00<"):
        codec = ["utf-16-le" if data[0] else "utf-16-be"]
    else:
        codec = ["utf-8"]  # unless the XML declaration names another
    root = _build_raw(data, leaves, codec)
    if codec[0] in ("utf-8", "ascii"):
        return root, data
    data = data.removeprefix(b"\xef\xbb\xbf").decode(codec[0]).encode("utf-8")  # expat skips a UTF-8 byte order mark
    return _build_raw(data, leaves, encoding="utf-8"), data


def _build_raw(source: bytes, leaves: dict | None = None, codec: list | None = None, encoding: str | None = None) -> _RawNode:
    """The raw tree of ``source``, read in ``encoding`` if given; given
    ``codec``, the one-item list of the encoding its first bytes show, UTF-8
    there becomes what its XML declaration names, if any, and no leaf reader
    runs unless it is UTF-8 or ASCII.  Raises ValueError past MAX_XML_DEPTH
    or MAX_XML_ELEMENTS.  Given ``leaves`` (see _Kind), the tree stops at
    the parts of the root."""

    parser = xml.parsers.expat.ParserCreate(encoding)
    parser.buffer_text = True  # one call per text run, or per 8 KiB of it
    new = object.__new__
    top = new(_RawNode)  # the parent of the root element
    top.children = []
    stack = [top]
    push, pop = stack.append, stack.pop
    count = depth = index = 0  # depth: the open element's, the root's being 1
    # the runs of each node that has more than one, joined once at the end:
    # adding each run to ``text`` would copy the text so far every time
    runs: dict[_RawNode, list[str]] = {}
    unread = dict(leaves or {}) if codec is None or codec[0] == "utf-8" else {}  # a repeated part is kept as its span
    read = text_tags = part = child_attrs = child_start = None
    child_runs: list[str] = []

    def on_decl(_version: str, named: str | None, _standalone: int) -> None:
        # for a name that expat does not know, lookup raises expat's LookupError first
        if named is not None and codec[0] == "utf-8":
            codec[0] = codecs.lookup(named).name
        if codec[0] not in ("utf-8", "ascii"):
            unread.clear()

    def on_start(name: str, attrs: dict[str, str]) -> None:
        nonlocal count, depth, read, text_tags, part, child_attrs, child_start, index
        count, depth = count + 1, depth + 1
        if count > MAX_XML_ELEMENTS:
            raise ValueError(f"more than {MAX_XML_ELEMENTS} elements")
        if depth > MAX_XML_DEPTH:
            raise ValueError(f"more than {MAX_XML_DEPTH} levels of elements")
        if leaves is not None and depth > 2:  # below a part
            if depth == 3 and read is not None:
                child_attrs, child_start = attrs, parser.CurrentByteIndex
                if name in text_tags:
                    parser.CharacterDataHandler = on_child_chars
            return
        node = new(_RawNode)
        node.tag = name
        node.attrs = attrs
        node.children = []
        node.text = ""
        node.start = parser.CurrentByteIndex
        stack[-1].children.append(node)
        push(node)
        if leaves is not None and depth == 2:
            read, text_tags = unread.pop(name, (None, ()))
            if read is not None:
                part = node.children = _Part(f"/{stack[1].tag}/{name}", source)
                index = 0

    def on_end(name: str) -> None:
        nonlocal depth, index
        if leaves is None or depth <= 2:
            pop().end_event = parser.CurrentByteIndex
        elif depth == 3 and read is not None:
            parser.CharacterDataHandler = None
            value = read(part, index, name, child_attrs, child_start, "".join(child_runs), parser.CurrentByteIndex)
            child_runs.clear()
            if value is not None and len(part) == index:
                part.append(value)
            elif value is not None:
                part.rep.keep(part, value, part.path, name, index)
            index += 1
        depth -= 1

    def on_chars(text: str) -> None:
        node = stack[-1]
        if not node.text:
            node.text = text
        elif node in runs:
            runs[node].append(text)
        else:
            runs[node] = [node.text, text]

    def on_child_chars(text: str) -> None:
        if depth == 3:  # not the part's own text, nor a nested element's
            child_runs.append(text)

    if codec is not None:
        parser.XmlDeclHandler = on_decl
    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_chars if leaves is None else None
    parser.Parse(source, True)
    for node, texts in runs.items():
        node.text = "".join(texts)
    return top.children[0]


# ---------------------------------------------------------------------------
# Analysis support


class _Report(list):
    """Syntax violations found while reading a document; value checks are
    left to the model validators.  ``moved`` maps the model's locator of a
    kept child to its source locator when earlier siblings were dropped;
    ``strangers`` are the ids of the violations of the unknown child tags
    that the reader skipped, so that they are told apart by a set lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.moved: dict[str, str] = {}
        self.strangers: set[int] = set()

    def error(self, code: str, path: str, message: str) -> None:
        self.append(Violation(code, path, message))

    def keep(self, kept: list, item: object, parent: str, tag: str, index: int) -> None:
        """Append ``item``, read from the <``tag``> that is source child
        ``index`` of ``parent``."""

        if len(kept) != index:
            self.moved[_at(parent, len(kept), tag)] = _at(parent, index, tag)
        kept.append(item)


class _Part(list):
    """The values read from a part's children, with its ``path``, ``rep`` of their violations and source ``data``."""

    def __init__(self, path: str, data: bytes) -> None:
        super().__init__()
        self.path, self.data, self.rep = path, data, _Report()


def _at(parent: str, index: int, tag: str) -> str:
    """The locator of a <``tag``> as child ``index`` of ``parent``.  The
    readers build one only where they record it: a valid document needs
    none."""

    return f"{parent}/{tag}[{index}]"


_XML_SPACE = " \t\n\r"  # ids and numbers split on it alone; str.split() is the same on ASCII: XML 1.0 has no \x0b, \x0c, \x1c-\x1f


def _ids(text: str) -> list[str]:
    return text.split() if text.isascii() else re.findall("[^ \t\n\r]+", text)


# The readers take a number in one step when its text matches NUMBER_RE or
# _INT_RE as it stands; _parse_num, _parse_int_text and _num_attr read any
# other text, reporting it at its locator when it is not a number.


def _parse_num(text: str, path: str, rep: _Report) -> float | None:
    if not NUMBER_RE.match(text.strip(_XML_SPACE)):
        rep.error("BadNumber", path, f"malformed number {text.strip(_XML_SPACE)!r}")
        return None
    return float(text)


def _parse_int_text(text: str, path: str, rep: _Report) -> int | None:
    if not _INT_RE.match(text.strip(_XML_SPACE)):
        rep.error("BadNumber", path, f"malformed integer {text.strip(_XML_SPACE)!r}")
        return None
    return int(text)


def _num_attr(tag: str, attrs: dict[str, str], name: str, path: str, rep: _Report) -> float | None:
    if name not in attrs:
        rep.error("ArityError", path, f"<{tag}> requires a {name!r} attribute")
        return None
    return _parse_num(attrs[name], f"{path}/@{name}", rep)


def _singletons(root: _RawNode, path: str, allowed: tuple[str, ...], rep: _Report) -> dict[str, _RawNode]:
    """First occurrence of each allowed child; duplicates are violations,
    and strangers are skipped and reported as such."""

    found: dict[str, _RawNode] = {}
    for ch in root.children:
        if ch.tag not in allowed:
            rep.error("UnknownTag", f"{path}/{ch.tag}", f"unknown tag <{ch.tag}>")
            rep.strangers.add(id(rep[-1]))
            continue
        if ch.tag in found:
            rep.error("DuplicateEntry", f"{path}/{ch.tag}", f"repeated <{ch.tag}> element")
            continue
        found[ch.tag] = ch
    return found


def _text(kids: dict[str, _RawNode], tag: str) -> str:
    """The stripped text of the part ``tag`` of ``kids``, or "" when the
    document has none."""

    return kids[tag].text.strip() if tag in kids else ""


# ---------------------------------------------------------------------------
# information.xml


def _analyze_information(kids: dict[str, _RawNode], data: bytes, rep: _Report) -> ProblemInfo:
    statement = kids["statement"].inner(data) if "statement" in kids else b""
    bibrefs: list[BibEntry] = []
    if "bibrefs" in kids:
        parent = "/information/bibrefs"
        for i, ch in enumerate(kids["bibrefs"].children):
            if ch.tag != "bibentry":
                rep.error("UnknownTag", _at(parent, i, ch.tag), f"expected <bibentry>, found <{ch.tag}>")
                continue
            entry = BibEntry(id=ch.attrs.get("id", ""), payload=ch.inner(data))
            rep.keep(bibrefs, entry, parent, ch.tag, i)
    keywords: list[str] = []
    if "keywords" in kids:
        parent = "/information/keywords"
        for i, ch in enumerate(kids["keywords"].children):
            if ch.tag != "keyword":
                rep.error("UnknownTag", _at(parent, i, ch.tag), f"expected <keyword>, found <{ch.tag}>")
                continue
            rep.keep(keywords, ch.text.strip(), parent, ch.tag, i)
    return ProblemInfo(
        name=_text(kids, "name"),
        description=_text(kids, "description"),
        statement=statement,
        bibrefs=tuple(bibrefs),
        keywords=tuple(keywords),
    )


# ---------------------------------------------------------------------------
# conjecture.xml


# A conjecture's nodes are located by ``at``, a function that builds the
# node's locator; it is called only when a violation is recorded there.


def _point_ids(node: _RawNode, want: int, at: Callable[[], str], rep: _Report) -> list[str] | None:
    ids = _ids(node.text)
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
        value = float(text) if NUMBER_RE.match(text) else _num_attr(node.tag, node.attrs, "value", at(), rep)
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


def _analyze_conjecture(kids: dict[str, _RawNode], data: bytes, rep: _Report) -> Conjecture:
    sections: dict[str, tuple[Predicate, ...]] = {}
    for section in CONJECTURE_SECTIONS:
        preds: list[Predicate] = []
        if section in kids:
            parent = f"/conjecture/{section}"
            for i, ch in enumerate(kids[section].children):
                p = _analyze_predicate(ch, lambda: _at(parent, i, ch.tag), rep)
                if p is not None:
                    rep.keep(preds, p, parent, ch.tag, i)
        sections[section] = tuple(preds)
    return Conjecture(**sections)


# ---------------------------------------------------------------------------
# intergeo.xml (supported subset)

# Every attribute that holds a step's real parameter
_PARAMETER_ATTRS = tuple(sorted({step[3] for step in _STEP_TAGS.values()} - {None}))


def _read_element(part: _Part, index: int, tag: str, attrs: dict[str, str], _start: int, _text: str, _end: int) -> ElementInstance | None:
    if tag not in _ELEMENT_TAGS:
        part.rep.error("UnknownTag", _at(part.path, index, tag), f"unsupported element kind <{tag}>")
        return None
    kind, names = _ELEMENT_TAGS[tag]
    coords = []
    for name in names:
        text = attrs.get(name, "")
        coords.append(float(text) if NUMBER_RE.match(text) else _num_attr(tag, attrs, name, _at(part.path, index, tag), part.rep))
    return None if None in coords else ElementInstance(attrs.get("id", ""), kind, tuple(coords))


def _read_step(part: _Part, index: int, tag: str, attrs: dict[str, str], start: int, text: str, end: int) -> Constraint | None:
    out_id = attrs.get("out", "")
    if not out_id:
        part.rep.error("BadId", _at(part.path, index, tag), f"constraint <{tag}> requires an out attribute")
        return None
    if tag not in _STEP_TAGS:
        return Constraint(output=out_id, kind=ConstraintKind.OPAQUE, opaque_tag=tag, opaque_payload=_raw(part.data, start, end))
    kind, _ins, _out, param_attr = _STEP_TAGS[tag]
    if param_attr is None and len(attrs) > 1:  # keep a stray parameter, so the model reports it as ArityError
        param_attr = next(filter(attrs.__contains__, _PARAMETER_ATTRS), None)
    parameter = None
    if param_attr in attrs:
        value = attrs[param_attr]
        parameter = float(value) if NUMBER_RE.match(value) else _parse_num(value, f"{_at(part.path, index, tag)}/@{param_attr}", part.rep)
    return Constraint(out_id, kind, tuple(_ids(text)), parameter)


def _analyze_construction(kids: dict[str, _RawNode], data: bytes, rep: _Report) -> Construction | None:
    if "elements" not in kids:
        rep.error("MissingElementsPart", "/construction/elements", "the elements part is required")
        return None
    elements, constraints = (kids[tag].children if tag in kids else _Part("", data) for tag in ("elements", "constraints"))
    for part in (elements, constraints):
        rep += part.rep
        rep.moved.update(part.rep.moved)
    display = _raw(data, kids["display"].start, kids["display"].end_event) if "display" in kids else b""
    return Construction(elements=tuple(elements), constraints=tuple(constraints), display=display)


# ---------------------------------------------------------------------------
# proofInfo.xml

_STATUS_BY_TEXT = {status.value: status for status in ProofStatus}


class _RuledOut(Exception):
    """Raised by a ``_has_identity`` handler to stop the parse: the document
    cannot read as an attempt of the identity sought."""


def _has_identity(data: bytes, identity: tuple[str, str, str]) -> bool:
    """Whether the proofInfo.xml reader reads an attempt of ``identity``
    from ``data`` (False for unreadable XML or a root other than
    <proof_info>), with nothing else analysed.

    One expat pass builds no node: it keeps the text of the first
    <prover>, <version> and <method> children of the root only, with the
    character data handler switched on inside them alone, and stops at the
    first fact that rules a match out.  The pass reads the whole document
    with the reader's expat, caps and declared encoding, so a document that
    passes it is one the reader reads, and reads as this identity."""

    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    wanted = dict(zip(ATTEMPT_IDENTITY, identity))
    depth = count = 0
    field: str | None = None  # the identity child being read
    runs: list[str] = []

    def on_start(name: str, _attrs: dict[str, str]) -> None:
        nonlocal depth, count, field
        count += 1
        if count > MAX_XML_ELEMENTS or depth >= MAX_XML_DEPTH:
            raise _RuledOut
        depth += 1
        if depth == 1:
            if name != "proof_info":
                raise _RuledOut
        elif depth == 2:
            if name in wanted:
                field = name
                parser.CharacterDataHandler = runs.append
        elif depth == 3 and field is not None:
            parser.CharacterDataHandler = None  # a nested child's text is not the field's

    def on_end(_name: str) -> None:
        nonlocal depth, field
        if field is not None:
            if depth == 2:
                parser.CharacterDataHandler = None
                if "".join(runs).strip() != wanted.pop(field):
                    raise _RuledOut
                field = None
                runs.clear()
            elif depth == 3:
                parser.CharacterDataHandler = runs.append
        depth -= 1

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    try:
        parser.Parse(data, True)
    except (_RuledOut, *XML_READ_ERRORS):
        return False
    return not any(wanted.values())  # a missing child reads as ""


def _analyze_proof_info(kids: dict[str, _RawNode], data: bytes, rep: _Report) -> ProofAttempt:
    status_text = _text(kids, "status")
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
    identity = {tag: _text(kids, tag) for tag in ATTEMPT_IDENTITY}
    return ProofAttempt(status=status, **identity, **records)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Public parse entry points


# Not a field of _Kind: the validate_* names are looked up when called, as
# bench/tracer.py swaps them to time the model layer
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
    refuses (all but the strangers its kind forgives).  Violations are
    syntax ones from the reader, then value ones from the model validators,
    each located at its source tag and child index; a conjecture's ids are
    resolved against ``construction`` when given."""

    rep = _Report()
    spec = _KINDS[kind]
    try:
        root, data = _parse_raw(data, spec.leaves)
    except XML_READ_ERRORS as exc:
        rep.error("MalformedXml", "/", f"XML parse error: {exc}")
        return None, rep, rep
    tag = kind.value
    if root.tag != tag:
        rep.error("UnknownTag", "/", f"expected root <{tag}>, found <{root.tag}>")
        return None, rep, rep
    value = spec.analyze(_singletons(root, f"/{tag}", spec.parts, rep), data, rep)
    model = [
        Violation(v.code, rep.moved[v.path], v.message) if v.path in rep.moved else v
        for v in _model_violations(kind, value, construction)
    ]
    violations = rep + model
    forgiven = rep.strangers if spec.forgives_strangers else ()
    return value, violations, [v for v in violations if id(v) not in forgiven]


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
#
# Each writer appends one line per element, at its literal indentation, and
# encodes the document once.  A payload is decoded as UTF-8 and spliced in:
# the model has read every payload of a valid value with expat, which reads
# a payload with no XML declaration as UTF-8 and refuses any other bytes.
# Every value a writer is given is valid, so each step is written in the one
# shape its signature allows.

_TEXT_SPECIAL = re.compile("[&<>]")
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_SPECIAL = re.compile('[&<>"\t\n\r]')
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _esc_text(s: str) -> str:
    return s.translate(_TEXT_ESCAPES) if _TEXT_SPECIAL.search(s) else s


def _esc_attr(s: str) -> str:
    return s.translate(_ATTR_ESCAPES) if _ATTR_SPECIAL.search(s) else s


def _template(tag: str, names: tuple[str, ...], content: str) -> str:
    """The line of a <``tag``> at depth 2 whose attributes are ``names`` and
    whose content is ``content`` ("" for an empty element), as a
    ``str.format`` template: field i is the value of ``names[i]``, and the
    attributes stand sorted by name."""

    attrs = "".join(f' {names[i]}="{{{i}}}"' for i in sorted(range(len(names)), key=names.__getitem__))
    return f"    <{tag}{attrs}>{content}</{tag}>" if content else f"    <{tag}{attrs}/>"


# tag -> the line of an element instance, given its id and coordinates
_ELEMENT_LINES = {tag: _template(tag, ("id", *coords), "") for tag, (_kind, coords) in _ELEMENT_TAGS.items()}
# tag -> the line of a step, given its output, its parameter ("" for a step
# whose signature has none) and its input ids
_STEP_LINES = {
    tag: _template(tag, ("out",) if param is None else ("out", param), "{2}" if ins else "")
    for tag, (_kind, ins, _out, param) in _STEP_TAGS.items()
}


def _document(lines: list[str]) -> bytes:
    """The declaration, then each of ``lines`` ended by a LF, in UTF-8."""

    lines.append("")
    return _DECLARATION + "\n".join(lines).encode("utf-8")


# Each serialize_* is its model check plus a _write_* writer; callers that
# have just validated the value call the writer directly.


def serialize_information(info: ProblemInfo) -> bytes:
    _refuse(validate_info(info))
    return _write_information(info)


def _write_information(info: ProblemInfo) -> bytes:
    lines = ["<information>", f"  <name>{_esc_text(info.name)}</name>"]
    if info.description:
        lines.append(f"  <description>{_esc_text(info.description)}</description>")
    if info.statement:
        lines.append(f"  <statement>{info.statement.decode()}</statement>")
    if info.bibrefs:
        lines.append("  <bibrefs>")
        for entry in info.bibrefs:
            tag = f'<bibentry id="{_esc_attr(entry.id)}"'
            lines.append(f"    {tag}>{entry.payload.decode()}</bibentry>" if entry.payload else f"    {tag}/>")
        lines.append("  </bibrefs>")
    if info.keywords:
        lines.append("  <keywords>")
        lines += [f"    <keyword>{_esc_text(kw)}</keyword>" for kw in info.keywords]
        lines.append("  </keywords>")
    lines.append("</information>")
    return _document(lines)


def _write_term(lines: list[str], t: Term | Equal, indent: str) -> None:
    """Append the lines of ``t``, a term or an equal predicate (written as
    its two terms), at ``indent``."""

    tag = PREDICATE_NAMES[Equal] if isinstance(t, Equal) else TERM_NAMES[type(t)]
    if isinstance(t, Const):
        lines.append(f'{indent}<{tag} value="{format_number(t.value)}"/>')
    elif isinstance(t, SegmentLength):
        lines.append(f"{indent}<{tag}>{_esc_text(f'{t.a} {t.b}')}</{tag}>")
    else:
        lines.append(f"{indent}<{tag}>")
        _write_term(lines, t.left, indent + "  ")
        _write_term(lines, t.right, indent + "  ")
        lines.append(f"{indent}</{tag}>")


def serialize_conjecture(c: Conjecture) -> bytes:
    _refuse(validate_conjecture(c, None))
    return _write_conjecture(c)


def _write_conjecture(c: Conjecture) -> bytes:
    lines = ["<conjecture>"]
    for section in CONJECTURE_SECTIONS:
        preds = getattr(c, section)
        if not preds:
            continue  # empty sections are omitted entirely
        lines.append(f"  <{section}>")
        for p in preds:
            if isinstance(p, Equal):
                _write_term(lines, p, "    ")
                continue
            tag = PREDICATE_NAMES[type(p)]
            ratio = f' ratio="{format_number(p.ratio)}"' if isinstance(p, SegmentRatio) else ""
            lines.append(f"    <{tag}{ratio}>{_esc_text(' '.join(predicate_point_ids(p)))}</{tag}>")
        lines.append(f"  </{section}>")
    lines.append("</conjecture>")
    return _document(lines)


def serialize_construction(k: Construction) -> bytes:
    _refuse(validate_construction(k))
    return _write_construction(k)


def _write_construction(k: Construction) -> bytes:
    lines = ["<construction>"]
    if k.elements:
        lines.append("  <elements>")
        lines += [
            _ELEMENT_LINES[e.kind._value_].format(_esc_attr(e.id), *map(format_number, e.coords)) for e in k.elements
        ]
        lines.append("  </elements>")
    else:
        lines.append("  <elements/>")
    if k.constraints:
        lines.append("  <constraints>")
        for c in k.constraints:
            if c.kind is ConstraintKind.OPAQUE:
                lines.append(f"    {c.opaque_payload.decode()}")
                continue
            parameter = "" if c.parameter is None else format_number(c.parameter)
            lines.append(_STEP_LINES[c.kind._value_].format(_esc_attr(c.output), parameter, _esc_text(" ".join(c.inputs))))
        lines.append("  </constraints>")
    if k.display:
        lines.append(f"  {k.display.decode()}")
    lines.append("</construction>")
    return _document(lines)


def serialize_proof_info(a: ProofAttempt) -> bytes:
    _refuse(validate_attempt(a))
    return _write_proof_info(a)


def _write_proof_info(a: ProofAttempt) -> bytes:
    lines = ["<proof_info>"]
    lines += [f"  <{tag}>{_esc_text(text)}</{tag}>" for tag, text in zip(ATTEMPT_IDENTITY, a.identity)]
    lines.append(f"  <status>{a.status.value}</status>")
    for section, (_record, _code, _zero_ok, children) in PROOF_INFO_SECTIONS.items():
        record = getattr(a, section)
        values = [(tag, as_type, getattr(record, fld)) for tag, fld, as_type in children]
        if all(value is None for _tag, _type, value in values):
            continue  # empty sections are omitted entirely
        lines.append(f"  <{section}>")
        for tag, as_type, value in values:
            if value is not None:
                text = format_number(value) if as_type is float else _esc_text(str(as_type(value)))
                lines.append(f"    <{tag}>{text}</{tag}>")
        lines.append(f"  </{section}>")
    lines.append("</proof_info>")
    return _document(lines)


# ---------------------------------------------------------------------------
# Document kinds


class _Kind(NamedTuple):
    """One document kind, whose root tag is its value: the singleton parts
    of the root, the analyzer that builds the value from them as
    _singletons picks them, whether a parse forgives (skips) unknown
    children, which validate_document still reports, the writer of a valid
    value, and, for a kind read in one pass, ``leaves``: by part tag, the
    reader that _build_raw calls at each child's end event (as _read_step),
    which returns the value read or None, and the child tags whose text it reads."""

    parts: tuple[str, ...]
    analyze: Callable[[dict[str, _RawNode], bytes, _Report], object]
    forgives_strangers: bool
    write: Callable[..., bytes]
    leaves: dict[str, tuple] | None = None


_KINDS = {
    DocumentKind.INFORMATION: _Kind(
        ("name", "description", "statement", "bibrefs", "keywords"), _analyze_information, True, _write_information
    ),
    DocumentKind.CONSTRUCTION: _Kind(
        ("elements", "constraints", "display"), _analyze_construction, False, _write_construction,
        {"elements": (_read_element, ()), "constraints": (_read_step, _STEP_TAGS)},
    ),
    DocumentKind.CONJECTURE: _Kind(CONJECTURE_SECTIONS, _analyze_conjecture, False, _write_conjecture),
    DocumentKind.PROOF_INFO: _Kind(
        (*ATTEMPT_IDENTITY, "status", *PROOF_INFO_SECTIONS), _analyze_proof_info, True, _write_proof_info
    ),
}


def canonicalize(kind: DocumentKind, data: bytes) -> bytes:
    """Serialize-after-parse; idempotent, and the identity on canonical
    documents."""

    # the parse has validated the value
    return _KINDS[kind].write(_parse(kind, data))
