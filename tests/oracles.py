"""Oracles used by the tests.

The exact-arithmetic oracles work over ``fractions.Fraction`` so predicate
truth and construction coordinates can be decided with no rounding at all.
They are deliberately independent of the float evaluation path they check:
collinearity is a determinant, equal length compares squared lengths, the
construction interpreter below re-executes the straight-line program over
rationals.

The zip oracles write and read archives through the standard library's
``zipfile``, independently of the container's own zip I/O; the path oracle
judges a safe path segment by segment.  The raw XML oracle at the end is
the dataclass tree builder the codec's leaner one must match node for node.
"""

from __future__ import annotations

import hashlib
import io
import math
import xml.parsers.expat
import zipfile
from dataclasses import dataclass, field
from fractions import Fraction

from i2gatp.model import Construction, ConstraintKind

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
# Zip oracles


def write_zip_reference(entries: list[tuple[str, bytes | None]]) -> bytes:
    """The deterministic archive of ``entries`` as ``zipfile`` writes it:
    sorted by path, a directory entry for every parent, fixed timestamps,
    unix modes, deflate level 6 above 256 bytes and stored otherwise."""

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
                    zf.writestr(zi, data, compress_type=zipfile.ZIP_DEFLATED, compresslevel=6)
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
