"""Boundary tracing of the i2gatp layers from outside the library.

Each i2gatp module calls the next layer through names it imported (or, in
``numeric``, through its own module globals).  :meth:`Tracer.installed`
swaps each of those names for a wrapper that records a span: name, start,
end, parent span and operation id.  Spans stay in flat arrays until the run
ends; self times are computed from them afterwards.  Leaving the context
puts every original name back, so an untraced run executes the library
unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module whose global is swapped, global name, span name).  A span name
# "container.<fn>" or "cli.<command>" belongs to the container or cli layer.
BOUNDARIES = (
    *(("i2gatp.cli", fn, f"container.{fn}") for fn in (
        "pack", "problem_from_entries", "read_container_entries", "strip_to_i2g",
        "unpack", "validate_container", "validate_entries")),
    ("i2gatp.cli", "parse_dsl", "dsl.parse"),
    ("i2gatp.cli", "emit_dsl", "dsl.emit"),
    ("i2gatp.cli", "emit_prover_input", "dsl.emit"),
    ("i2gatp.cli", "check_conjecture", "numeric.check"),
    *(("i2gatp.container", f"parse_{doc}", "xml_codec.parse") for doc in (
        "construction", "information", "conjecture", "proof_info")),
    *(("i2gatp.container", f"serialize_{doc}", "xml_codec.serialize") for doc in (
        "construction", "information", "conjecture", "proof_info")),
    ("i2gatp.container", "validate_document", "xml_codec.validate"),
    ("i2gatp.container", "validate_problem", "model.validate"),
    ("i2gatp.container", "validate_attempt", "model.validate"),
    ("i2gatp.container", "canonicalize_problem", "model.canonicalize"),
    *(("i2gatp.xml_codec", f"validate_{part}", "model.validate") for part in (
        "info", "construction", "conjecture", "attempt")),
    ("i2gatp.dsl", "instantiate", "numeric.instantiate"),
    ("i2gatp.numeric", "instantiate", "numeric.instantiate"),
    ("i2gatp.numeric", "eval_predicate", "numeric.eval_predicate"),
    ("i2gatp.numeric", "scene_scale", "numeric.scene_scale"),
)


def layer_of(span_name: str) -> str:
    """The metric prefix a span counts under."""

    head = span_name.split(".", 1)[0]
    return head if head in ("cli", "container") else span_name


class Tracer:
    """In-memory span store with wrappers for the layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.bytes_in = 0
        self.bytes_out = 0
        self.ops = 0
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str):
        """``fn`` recording one span per call; container calls also count
        the bytes they take and return."""

        name_id = self._name_id(span_name)
        count_bytes = span_name.startswith("container.")
        names, parents, ops, starts, ends, stack = self.name, self.parent, self.op, self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.ops - 1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count_bytes:
                self.bytes_in += sum(len(a) for a in args if isinstance(a, bytes))
                if isinstance(result, bytes):
                    self.bytes_out += len(result)
            return result

        return wrapper

    def root(self, span_name: str, fn, *args):
        """Call ``fn`` as a new operation, under a root span."""

        self.ops += 1
        return self.wrap(fn, span_name)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Swap every boundary name for its wrapper; restore on exit."""

        saved = []
        try:
            for module_name, attr, span_name in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> array:
        """Per span: its duration minus the durations of its direct children."""

        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and one binary column per field."""

        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "op", "start", "end")
        header = {"names": self.names, "count": len(self.start), "columns": [[c, getattr(self, c).typecode] for c in columns]}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for c in columns:
                getattr(self, c).tofile(fh)

    def totals(self) -> dict[str, list[int]]:
        """Per layer (see :func:`layer_of`): [self time in ns, calls]."""

        out: dict[str, list[int]] = {}
        for name_id, own in zip(self.name, self.self_times()):
            entry = out.setdefault(layer_of(self.names[name_id]), [0, 0])
            entry[0] += own
            entry[1] += 1
        return out

    def calls_under(self, span_name: str, ancestor: str) -> tuple[int, int]:
        """(spans named ``span_name`` below an ``ancestor`` span, number of
        ``ancestor`` spans)."""

        target, top = self._ids.get(span_name), self._ids.get(ancestor)
        below = 0
        for i, name_id in enumerate(self.name):
            if name_id != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != top:
                p = self.parent[p]
            below += p >= 0
        return below, sum(1 for name_id in self.name if name_id == top)
