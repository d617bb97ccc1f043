"""Oracles used by the tests.

The exact-arithmetic oracles work over ``fractions.Fraction`` so predicate
truth and construction coordinates can be decided with no rounding at all.
They are deliberately independent of the float evaluation path they check:
collinearity is a determinant, equal length compares squared lengths, the
construction interpreter below re-executes the straight-line program over
rationals.

The reference runner is the construction interpreter as it was before the
plan ran in one loop: one function per step kind, each returning its new
object and the running scale; the interpreter must match it bit for bit.

The zip oracles write and read archives through the standard library's
``zipfile``, independently of the container's own zip I/O; the path oracle
judges a safe path segment by segment.  The raw XML oracle is the
dataclass tree builder the codec's leaner one must match node for node;
the construction reader oracle reads intergeo.xml from that whole tree,
one child at a time, as the codec did before it read the document in one
pass.
The XML writer oracles at the end are the canonical writers as they were
before each element became one formatted line: a writer object that sorts
and escapes an attribute dict per element and encodes line by line.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import math
import re
import xml.parsers.expat
import zipfile
from dataclasses import dataclass, field
from fractions import Fraction

from i2gatp.errors import DegenerateStep
from i2gatp.model import (
    CONSTRAINT_SIGNATURES,
    NUMBER_RE,
    PREDICATE_NAMES,
    PROOF_INFO_SECTIONS,
    TERM_NAMES,
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
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    XML_READ_ERRORS,
    _ELEMENT_TAGS,
    _STEP_TAGS,
    format_number,
    predicate_point_ids,
    validate_construction,
)
from i2gatp.numeric import SceneCircle, SceneLine, ScenePoint

Frac2 = tuple[Fraction, Fraction]


def collinear_exact(p: Frac2, q: Frac2, r: Frac2) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) == 0


def parallel_exact(a: Frac2, b: Frac2, c: Frac2, d: Frac2) -> bool:
    return (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0]) == 0


def perpendicular_exact(a: Frac2, b: Frac2, c: Frac2, d: Frac2) -> bool:
    return (b[0] - a[0]) * (d[0] - c[0]) + (b[1] - a[1]) * (d[1] - c[1]) == 0


def midpoint_exact(m: Frac2, a: Frac2, b: Frac2) -> bool:
    return 2 * m[0] == a[0] + b[0] and 2 * m[1] == a[1] + b[1]


def same_length_exact(a: Frac2, b: Frac2, c: Frac2, d: Frac2) -> bool:
    ab2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    cd2 = (d[0] - c[0]) ** 2 + (d[1] - c[1]) ** 2
    return ab2 == cd2


def cross_ratio_exact(a: Frac2, b: Frac2, c: Frac2, d: Frac2) -> Fraction:
    """Signed cross ratio (ac/cb)/(ad/db) of four collinear points, using
    exact signed coordinates along the ab direction (scaled projection, no
    square roots needed since only ratios matter)."""

    ux = b[0] - a[0]
    uy = b[1] - a[1]
    tb = ux * ux + uy * uy
    tc = (c[0] - a[0]) * ux + (c[1] - a[1]) * uy
    td = (d[0] - a[0]) * ux + (d[1] - a[1]) * uy
    return (tc * (tb - td)) / ((tb - tc) * td)


def instantiate_exact(
    construction: Construction, free_assign: dict[str, Frac2]
) -> dict[str, tuple[Fraction, ...]]:
    """Execute the straight-line program over rationals.

    Lines are kept as unnormalized homogeneous triples; supported steps are
    the square-root-free ones (free points, lines, intersections, midpoints,
    perpendicular/parallel lines).
    """

    scene: dict[str, tuple[Fraction, ...]] = {}
    for c in construction.constraints:
        if c.kind is ConstraintKind.FREE_POINT:
            x, y = free_assign[c.output]
            scene[c.output] = (Fraction(x), Fraction(y))
        elif c.kind is ConstraintKind.LINE_THROUGH_TWO_POINTS:
            (x1, y1), (x2, y2) = scene[c.inputs[0]], scene[c.inputs[1]]
            scene[c.output] = (y1 - y2, x2 - x1, x1 * y2 - x2 * y1)
        elif c.kind is ConstraintKind.INTERSECTION_OF_TWO_LINES:
            (a1, b1, c1), (a2, b2, c2) = scene[c.inputs[0]], scene[c.inputs[1]]
            h3 = a1 * b2 - b1 * a2
            if h3 == 0:
                raise ZeroDivisionError("parallel lines")
            scene[c.output] = ((b1 * c2 - c1 * b2) / h3, (c1 * a2 - a1 * c2) / h3)
        elif c.kind is ConstraintKind.MIDPOINT_OF_TWO_POINTS:
            (x1, y1), (x2, y2) = scene[c.inputs[0]], scene[c.inputs[1]]
            scene[c.output] = ((x1 + x2) / 2, (y1 + y2) / 2)
        elif c.kind is ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT:
            (a, b, _), (px, py) = scene[c.inputs[0]], scene[c.inputs[1]]
            scene[c.output] = (b, -a, a * py - b * px)
        elif c.kind is ConstraintKind.PARALLEL_LINE_THROUGH_POINT:
            (a, b, _), (px, py) = scene[c.inputs[0]], scene[c.inputs[1]]
            scene[c.output] = (a, b, -(a * px + b * py))
        else:
            raise NotImplementedError(f"no exact rule for {c.kind}")
    return scene


def normalize_line_float(a: Fraction, b: Fraction, c: Fraction) -> tuple[float, float, float]:
    """Float normalization of an exact line, matching the scene convention
    (unit normal, lexicographically positive)."""

    af, bf, cf = float(a), float(b), float(c)
    n = math.sqrt(af * af + bf * bf)
    af, bf, cf = af / n, bf / n, cf / n
    if af < 0.0 or (af == 0.0 and bf < 0.0):
        af, bf, cf = -af, -bf, -cf
    return af, bf, cf


# ---------------------------------------------------------------------------
# Reference construction runner


_NOT_FINITE = "coordinates are not finite"
# the generated __new__ of a named tuple costs a Python call per step
_new = tuple.__new__


def _grow(out: str, a: float) -> float:
    """The new running scale for an absolute coordinate ``a`` that is not
    within the old one; DegenerateStep if ``a`` is inf or NaN."""

    if a < math.inf:
        return a
    raise DegenerateStep(out, _NOT_FINITE)


def _new_point(out: str, x: float, y: float, scale: float) -> tuple[ScenePoint, float]:
    ax = abs(x)
    if not ax <= scale:
        scale = _grow(out, ax)
    ay = abs(y)
    if not ay <= scale:
        scale = _grow(out, ay)
    return _new(ScenePoint, (x, y)), scale


def _new_line(out: str, a: float, b: float, c: float, scale: float) -> tuple[SceneLine, float]:
    n = math.sqrt(a * a + b * b)
    if not 0.0 < n < math.inf:
        raise DegenerateStep(out, _NOT_FINITE)
    a, b, c = a / n, b / n, c / n
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    # |a| and |b| are at most 1, so only c can grow the scale
    ac = abs(c)
    if not ac <= scale:
        scale = _grow(out, ac)
    return _new(SceneLine, (a, b, c)), scale


def _free_point(c, xy, _xy, eps_rel, scale):
    return _new_point(c.output, xy[0], xy[1], scale)


def _line_through_two_points(c, p, q, eps_rel, scale):
    px, py = p
    qx, qy = q
    a = py - qy
    b = qx - px
    if math.sqrt(a * a + b * b) < eps_rel * scale:
        raise DegenerateStep(c.output, f"points {c.inputs[0]} and {c.inputs[1]} coincide")
    return _new_line(c.output, a, b, px * qy - qx * py, scale)


def _intersection_of_two_lines(c, l, m, eps_rel, scale):
    la, lb, lc = l
    ma, mb, mc = m
    h3 = la * mb - lb * ma
    if abs(h3) < eps_rel * scale:
        raise DegenerateStep(c.output, f"lines {c.inputs[0]} and {c.inputs[1]} are parallel")
    return _new_point(c.output, (lb * mc - lc * mb) / h3, (lc * ma - la * mc) / h3, scale)


def _midpoint_of_two_points(c, p, q, eps_rel, scale):
    return _new_point(c.output, (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0, scale)


def _circle_by_center_and_point(c, o, p, eps_rel, scale):
    # the centre's coordinates grew the scale when the centre was made
    ox, oy = o
    dx = ox - p[0]
    dy = oy - p[1]
    r = math.sqrt(dx * dx + dy * dy)
    if not r <= scale:
        scale = _grow(c.output, r)
    return _new(SceneCircle, (ox, oy, r)), scale


def _perpendicular_line_through_point(c, l, p, eps_rel, scale):
    la, lb, _lc = l
    return _new_line(c.output, lb, -la, la * p[1] - lb * p[0], scale)


def _parallel_line_through_point(c, l, p, eps_rel, scale):
    la, lb, _lc = l
    return _new_line(c.output, la, lb, -(la * p[0] + lb * p[1]), scale)


def _point_on_line(c, l, _l, eps_rel, scale):
    la, lb, lc = l
    t = c.parameter or 0.0
    # base point: foot of the perpendicular from the origin
    return _new_point(c.output, -la * lc - lb * t, -lb * lc + la * t, scale)


def _point_on_circle(c, k, _k, eps_rel, scale):
    cx, cy, r = k
    ang = c.parameter or 0.0
    return _new_point(c.output, cx + r * math.cos(ang), cy + r * math.sin(ang), scale)


_STEPS = {
    ConstraintKind.FREE_POINT: _free_point,
    ConstraintKind.LINE_THROUGH_TWO_POINTS: _line_through_two_points,
    ConstraintKind.INTERSECTION_OF_TWO_LINES: _intersection_of_two_lines,
    ConstraintKind.MIDPOINT_OF_TWO_POINTS: _midpoint_of_two_points,
    ConstraintKind.CIRCLE_BY_CENTER_AND_POINT: _circle_by_center_and_point,
    ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT: _perpendicular_line_through_point,
    ConstraintKind.PARALLEL_LINE_THROUGH_POINT: _parallel_line_through_point,
    ConstraintKind.POINT_ON_LINE: _point_on_line,
    ConstraintKind.POINT_ON_CIRCLE: _point_on_circle,
}


def run_reference(plan, pairs: list[tuple[float, float]], eps_rel: float) -> tuple[list, float]:
    """What ``numeric._run`` returns for a compiled ``plan``, with each scene
    object typed as ``numeric.instantiate`` types it: its slots and scale,
    or the DegenerateStep it raises.  Each step runs the function of its
    constraint kind on the contents of its two input slots."""

    slots = [None] * len(plan.ids) + pairs
    scale = 1.0
    for _op, c, first, second, out in plan.steps:
        slots[out], scale = _STEPS[c.kind](c, slots[first], slots[second], eps_rel, scale)
    return slots, scale


# ---------------------------------------------------------------------------
# Zip oracles


def write_zip_reference(entries: list[tuple[str, bytes | None]], level: int = 6) -> bytes:
    """The deterministic archive of ``entries`` as ``zipfile`` writes it:
    sorted by path, a directory entry for every parent, fixed timestamps,
    unix modes, deflate at ``level`` above 256 bytes and stored otherwise."""

    names = {name for name, _ in entries}
    parents = {name[: i + 1] for name in names for i, char in enumerate(name[:-1]) if char == "/"}
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in sorted(entries + [(d, None) for d in parents - names], key=lambda e: e[0]):
            zi = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zi.create_system = 3
            if data is None:
                zi.external_attr = (0o40755 << 16) | 0x10
                zf.writestr(zi, b"", compress_type=zipfile.ZIP_STORED)
            else:
                zi.external_attr = 0o644 << 16
                if len(data) > 256:
                    zf.writestr(zi, data, compress_type=zipfile.ZIP_DEFLATED, compresslevel=level)
                else:
                    zf.writestr(zi, data, compress_type=zipfile.ZIP_STORED)
    return buf.getvalue()


def read_zip_reference(data: bytes) -> list[tuple[str, bytes | None]]:
    """The (path, bytes) entries ``zipfile`` reads from ``data``, directory
    entries with None; raises whatever ``zipfile`` raises."""

    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return [(info.filename, None if info.is_dir() else zf.read(info)) for info in zf.infolist()]


def content_digest_reference(data: bytes) -> str:
    """SHA-256 of what an archive holds whatever deflate wrote it, as
    ``zipfile`` reads it: for each entry in central-directory order, its
    name and header fields other than its compressed size and offset, its
    uncompressed bytes and its CRC-32."""

    digest = hashlib.sha256()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for info in zf.infolist():
            content = zf.read(info)
            fields = (
                info.orig_filename, info.create_version, info.create_system, info.extract_version, info.reserved,
                info.flag_bits, info.compress_type, info.date_time, info.volume, info.internal_attr,
                info.external_attr, info.extra, info.comment, info.file_size, info.CRC, len(content),
            )  # fmt: skip
            digest.update(repr(fields).encode() + content)
    return digest.hexdigest()


def is_safe_relative_path_reference(path: str) -> bool:
    """model.is_safe_relative_path as it split the path into segments."""

    if not path or path.startswith("/") or "\\" in path or "\0" in path:
        return False
    if not path.isascii():
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            return False
    return all(seg not in ("", ".", "..") for seg in path.split("/"))


# ---------------------------------------------------------------------------
# Raw XML oracle


@dataclass
class RawNodeReference:
    tag: str
    attrs: dict[str, str]
    children: list["RawNodeReference"] = field(default_factory=list)
    text: str = ""
    start: int = -1
    end_event: int = -1


def parse_raw_reference(data: bytes) -> RawNodeReference:
    """The raw tree of ``data``, built one expat callback at a time with no
    text buffering; raises what expat raises."""

    parser = xml.parsers.expat.ParserCreate()
    roots: list[RawNodeReference] = []
    stack: list[RawNodeReference] = []

    def on_start(name: str, attrs: dict[str, str]) -> None:
        node = RawNodeReference(tag=name, attrs=attrs, start=parser.CurrentByteIndex)
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
# Construction reader oracle

_PARTS = ("elements", "constraints", "display")
_PARAMETER_NAMES = sorted({param for _ins, _out, param in CONSTRAINT_SIGNATURES.values() if param is not None})


def _utf8_source(data: bytes) -> bytes | str:
    """``data`` itself when expat reads it as UTF-8 or ASCII, else its text,
    which the reader reads from its UTF-8 encoding."""

    declared: list[str | None] = [None]
    parser = xml.parsers.expat.ParserCreate()
    parser.XmlDeclHandler = lambda _version, encoding, _standalone: declared.__setitem__(0, encoding)
    parser.Parse(data, True)
    if data[:2] in (b"\xff\xfe", b"\xfe\xff"):
        codec = "utf-16"
    elif data[:2] in (b"<\x00", b"\x00<"):
        codec = "utf-16-le" if data[0] else "utf-16-be"
    else:
        codec = codecs.lookup(declared[0] or "utf-8").name
    return data if codec in ("utf-8", "ascii") else data.removeprefix(b"\xef\xbb\xbf").decode(codec)


def _element_bytes(node: RawNodeReference, source: bytes) -> bytes:
    # an empty element's end event comes right after its tag
    if not node.children and not node.text and source[node.start : node.end_event].endswith(b"/>"):
        return source[node.start : node.end_event]
    return source[node.start : source.index(b">", node.end_event) + 1]


def _number(text: str, path: str, found: list[Violation]) -> float | None:
    text = text.strip(" \t\n\r")
    if NUMBER_RE.match(text):
        return float(text)
    found.append(Violation("BadNumber", path, f"malformed number {text!r}"))
    return None


def read_construction_reference(data: bytes) -> tuple[Construction | None, list[Violation], list[Violation]]:
    """The value, violations and refused violations of intergeo.xml
    ``data``, below the caps, as ``xml_codec._read`` gives them."""

    try:
        source = _utf8_source(data)
        root = parse_raw_reference(source)
    except XML_READ_ERRORS as exc:
        found = [Violation("MalformedXml", "/", f"XML parse error: {exc}")]
        return None, found, found
    if isinstance(source, str):
        source = source.encode("utf-8")
    found: list[Violation] = []
    if root.tag != "construction":
        found.append(Violation("UnknownTag", "/", f"expected root <construction>, found <{root.tag}>"))
        return None, found, found
    parts: dict[str, RawNodeReference] = {}
    for ch in root.children:
        if ch.tag not in _PARTS:
            found.append(Violation("UnknownTag", f"/construction/{ch.tag}", f"unknown tag <{ch.tag}>"))
        elif ch.tag in parts:
            found.append(Violation("DuplicateEntry", f"/construction/{ch.tag}", f"repeated <{ch.tag}> element"))
        else:
            parts[ch.tag] = ch
    if "elements" not in parts:
        found.append(Violation("MissingElementsPart", "/construction/elements", "the elements part is required"))
        return None, found, found
    moved: dict[str, str] = {}  # the model's locator of a kept child -> its source locator

    def keep(kept: list, item: object, parent: str, ch: RawNodeReference, i: int) -> None:
        if len(kept) != i:
            moved[f"{parent}/{ch.tag}[{len(kept)}]"] = f"{parent}/{ch.tag}[{i}]"
        kept.append(item)

    elements: list[ElementInstance] = []
    for i, ch in enumerate(parts["elements"].children):
        at = f"/construction/elements/{ch.tag}[{i}]"
        if ch.tag not in _ELEMENT_TAGS:
            found.append(Violation("UnknownTag", at, f"unsupported element kind <{ch.tag}>"))
            continue
        kind, names = _ELEMENT_TAGS[ch.tag]
        coords = []
        for name in names:
            if name in ch.attrs:
                coords.append(_number(ch.attrs[name], f"{at}/@{name}", found))
            else:
                found.append(Violation("ArityError", at, f"<{ch.tag}> requires a {name!r} attribute"))
                coords.append(None)
        if None not in coords:
            keep(elements, ElementInstance(ch.attrs.get("id", ""), kind, tuple(coords)), "/construction/elements", ch, i)
    constraints: list[Constraint] = []
    for i, ch in enumerate(parts["constraints"].children if "constraints" in parts else []):
        at = f"/construction/constraints/{ch.tag}[{i}]"
        out = ch.attrs.get("out", "")
        if not out:
            found.append(Violation("BadId", at, f"constraint <{ch.tag}> requires an out attribute"))
            continue
        if ch.tag not in _STEP_TAGS:
            c = Constraint(out, ConstraintKind.OPAQUE, opaque_tag=ch.tag, opaque_payload=_element_bytes(ch, source))
        else:
            kind, _ins, _out, param = _STEP_TAGS[ch.tag]
            if param is None and len(ch.attrs) > 1:  # a stray parameter, which the model reports
                param = next((name for name in _PARAMETER_NAMES if name in ch.attrs), None)
            value = _number(ch.attrs[param], f"{at}/@{param}", found) if param in ch.attrs else None
            c = Constraint(out, kind, tuple(re.findall("[^ \t\n\r]+", ch.text)), value)
        keep(constraints, c, "/construction/constraints", ch, i)
    display = _element_bytes(parts["display"], source) if "display" in parts else b""
    value = Construction(elements=tuple(elements), constraints=tuple(constraints), display=display)
    found += [Violation(v.code, moved.get(v.path, v.path), v.message) for v in validate_construction(value)]
    return value, found, found


# ---------------------------------------------------------------------------
# XML writer oracles


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


def write_information_reference(info: ProblemInfo) -> bytes:
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


def write_conjecture_reference(c: Conjecture) -> bytes:
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


def write_construction_reference(k: Construction) -> bytes:
    w = _Writer()
    w.open("construction")
    if k.elements:
        w.open("elements")
        for e in k.elements:
            attrs = dict(zip(_ELEMENT_TAGS[e.kind.value][1], map(format_number, e.coords)), id=e.id)
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
            if c.parameter is not None:
                attrs[_STEP_TAGS[c.kind.value][3]] = format_number(c.parameter)
            if c.inputs:
                w.leaf(c.kind.value, " ".join(c.inputs), attrs)
            else:
                w.empty(c.kind.value, attrs)
        w.close("constraints")
    if k.display:
        w.raw(k.display)
    w.close("construction")
    return w.bytes()


def write_proof_info_reference(a: ProofAttempt) -> bytes:
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
