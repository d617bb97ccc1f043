"""Machine-speed reference that the benchmark scales its times by.

On a shared virtual machine the CPU speed moves between levels up to about
1.8x apart, within seconds, as other tenants load the host.  A time taken
in a slow spell would read as a regression that is not there.  So before
each job the benchmark times a fixed reference computation, and it scales
each measured time by ``REFERENCE_MS / t_ref``, where ``t_ref`` is the
median of the last few reference timings.  A scaled time is the time the
operation would take when the reference takes ``REFERENCE_MS``.

The reference uses only the standard library, never the code under test,
in the mix the toolkit itself runs: expat parsing, small frozen
dataclasses, dict work, deflate and JSON, and pure-Python plane geometry
like the checker's: distances, midpoints and cross products of points.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import xml.parsers.expat
import zipfile
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns

REFERENCE_MS = 1.0  # the unit of scaled times: the reference takes this long

_XML = b"<r>" + b"".join(b'<p id="a%d" x="%d.5" y="-%d.25">t</p>' % (i, i, i) for i in range(150)) + b"</r>"
_BLOB = bytes(range(256)) * 16 + _XML


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _distance(a: _Point, b: _Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _geometry(points: list[_Point]) -> float:
    total = 0.0
    for a in points[::6]:
        for b in points[::8]:
            mid = _Point((a.x + b.x) / 2, (a.y + b.y) / 2)
            total += _distance(a, b) + abs(mid.x * b.y - mid.y * b.x)
    return total


def reference_work() -> float:
    points = []
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = lambda tag, attrs: points.append(_Point(float(attrs.get("x", 0)), float(attrs.get("y", 0))))
    parser.Parse(_XML, True)
    by_id = {f"k{i}": p for i, p in enumerate(points)}
    total = 0.0
    for p in by_id.values():
        if isinstance(p, _Point):
            total += (p.x * p.x + p.y * p.y) ** 0.5
    total += _geometry(points)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("a.xml", _BLOB, compress_type=zipfile.ZIP_DEFLATED)
    with zipfile.ZipFile(io.BytesIO(buf.getvalue())) as zf:
        zf.read("a.xml")
    json.loads(json.dumps({"total": total, "x": [p.x for p in points]}))
    return total


class SpeedReference:
    """Median of the reference's last ``window`` timings (all, for None)."""

    def __init__(self, window: int | None = 9) -> None:
        self._recent: deque[int] = deque(maxlen=window)

    def sample(self) -> None:
        t0 = perf_counter_ns()
        reference_work()
        self._recent.append(perf_counter_ns() - t0)

    def scale(self) -> float:
        """Factor from measured to scaled times."""

        return REFERENCE_MS * 1e6 / statistics.median(self._recent)
