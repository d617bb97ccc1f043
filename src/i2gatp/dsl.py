"""Textual DSL for constructions and conjectures, plus a prover-input emitter.

The DSL (grammar frozen in docs/dsl.md, extension ``.gcl``) is line oriented:
one construction statement per line, ``%`` starts a comment, and an optional
``prove { ... }`` block holds the conjecture.  Leading comment lines of the
form ``% name: ...``, ``% description: ...`` and ``% keyword: ...`` carry the
information record.

Conversion always goes through the Problem value, so any format reachable
from a Problem is reachable from the DSL and vice versa.  The static initial
instance of a DSL-sourced construction is computed from the literal free
coordinates; a problem is inside DSL coverage when its stored instance equals
that computation and its construction has no opaque constraints.

The prover-input emitter (extension ``.gpi``, format frozen in
docs/prover_input.md) writes construction steps as typed facts followed by
``ndg:``, ``hypothesis:`` and ``conclude:`` predicate sections.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator

from .errors import (
    CodecError,
    DegenerateInitialInstance,
    DegenerateStep,
    DslSyntaxError,
    DslUnresolvedId,
    NoConjectureError,
    OpaqueConstraintError,
)
from .model import (
    CONSTRAINT_SIGNATURES,
    ID_RE,
    MAX_TERM_DEPTH,
    MAX_XML_ELEMENTS,
    NUMBER_RE,
    PREDICATE_NAMES,
    PREDICATES,
    TERM_NAMES,
    TERMS,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Predicate,
    Problem,
    ProblemInfo,
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    _refuse,
    construction_element_count,
    format_number,
    predicate_point_ids,
    validate_conjecture,
    validate_construction,
    validate_info,
)
from .numeric import instantiate

__all__ = ["emit_dsl", "emit_prover_input", "parse_dsl"]

_STATEMENT_KEYWORDS = {
    ConstraintKind.FREE_POINT: "point",
    ConstraintKind.LINE_THROUGH_TWO_POINTS: "line",
    ConstraintKind.INTERSECTION_OF_TWO_LINES: "intersec",
    ConstraintKind.MIDPOINT_OF_TWO_POINTS: "midpoint",
    ConstraintKind.CIRCLE_BY_CENTER_AND_POINT: "circle",
    ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT: "perp",
    ConstraintKind.PARALLEL_LINE_THROUGH_POINT: "parallel",
    ConstraintKind.POINT_ON_LINE: "online",
    ConstraintKind.POINT_ON_CIRCLE: "oncircle",
}
_STATEMENTS = {keyword: kind for kind, keyword in _STATEMENT_KEYWORDS.items()}

_HEADER_RE = re.compile(r"%\s*(name|description|keyword)\s*:\s*(.*?)\s*$")
# The model's locator of an item of a list: a keyword or a predicate
_ITEM_PATH = re.compile(r"/\w+/(\w+)/\w+\[(\d+)\]\Z")


# ---------------------------------------------------------------------------
# Parsing


# The prove block as parse_dsl hands it over: an iterator of (token, line)
# pairs that ends at the first line holding a '}'.  Every reader but the
# block's own loop refuses '}', so no next() runs past it.
_Block = Iterator[tuple[str, int]]


def _line_tokens(content: str, lineno: int) -> list[tuple[str, int]]:
    """The tokens of one line's content, each with its line; '{', '}' and
    ';' are tokens of their own."""

    spaced = content.replace("{", " { ").replace("}", " } ").replace(";", " ; ")
    return [(tok, lineno) for tok in spaced.split()]


def _check_id_token(token: str, line: int) -> str:
    if not ID_RE.match(token):
        raise DslSyntaxError(line, f"invalid id {token!r}")
    return token


def _parse_number(token: str, line: int) -> float:
    if not NUMBER_RE.match(token):
        raise DslSyntaxError(line, f"malformed number {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise DslSyntaxError(line, f"number {token!r} is not finite")
    return value


def _parse_point_ids(block: _Block, count: int) -> list[str]:
    return [_check_id_token(*next(block)) for _ in range(count)]


def _parse_term(block: _Block, depth: int = 1) -> Term:
    token, line = next(block)
    cls = TERMS.get(token)
    if cls is None:
        raise DslSyntaxError(line, f"unknown term {token!r}")
    # the model bounds a built term too; the parser stops first, since
    # building a deeper term would recurse without bound
    if depth > MAX_TERM_DEPTH:
        raise DslSyntaxError(line, f"term nested deeper than {MAX_TERM_DEPTH} levels")
    if cls is Const:
        return Const(_parse_number(*next(block)))
    if cls is SegmentLength:
        return SegmentLength(*_parse_point_ids(block, 2))
    left, right = _parse_term(block, depth + 1), _parse_term(block, depth + 1)
    # the model refuses to build a term past the element cap as CodecError
    if left.nodes + right.nodes + 1 > MAX_XML_ELEMENTS:
        raise DslSyntaxError(line, f"term written with more than {MAX_XML_ELEMENTS} elements")
    return cls(left, right)


def _parse_predicate(block: _Block) -> tuple[Predicate, int]:
    token, line = next(block)
    if token not in PREDICATES:
        raise DslSyntaxError(line, f"unknown predicate {token!r}")
    cls, arity = PREDICATES[token]
    if cls is Equal:
        return Equal(_parse_term(block), _parse_term(block)), line
    ids = _parse_point_ids(block, arity)
    if cls is not SegmentRatio:
        return cls(*ids), line
    return SegmentRatio(*ids, ratio=_parse_number(*next(block))), line


def _parse_prove_block(block: _Block, start_line: int):
    opener, oline = next(block)
    if opener != "{":
        raise DslSyntaxError(oline, f"expected '{{' after prove, found {opener!r}")
    sections: dict[str, list[tuple[Predicate, int]]] = {"hyp": [], "ndg": [], "conclude": []}
    for token, line in block:
        if token == "}":
            break
        if token in sections:
            sections[token].append(_parse_predicate(block))
        elif token != ";":
            raise DslSyntaxError(line, f"expected hyp, ndg or conclude, found {token!r}")
    extra = next(block, None)
    if extra is not None:
        raise DslSyntaxError(extra[1], f"unexpected {extra[0]!r} after prove block")
    if not sections["conclude"]:
        raise DslSyntaxError(start_line, "prove block needs at least one conclude predicate")
    return sections


def _refuse_first(violations: list[Violation], lists: dict[str, list[tuple[object, int]]], line: int) -> None:
    """Raise the first of the model's ``violations``, if any, as a
    DslUnresolvedId for an UnresolvedId and a DslSyntaxError otherwise: at
    the line of its item, read from ``lists`` by the list's name and the
    item's index, or at ``line`` when it names no item of ``lists``."""

    if violations:
        first = violations[0]
        item = _ITEM_PATH.match(first.path)
        if item and item[1] in lists:
            line = lists[item[1]][int(item[2])][1]
        raise (DslUnresolvedId if first.code == "UnresolvedId" else DslSyntaxError)(line, first.message)


def parse_dsl(text: str) -> Problem:
    """Parse DSL text into a problem with a computed initial instance."""

    kinds: dict[str, GeoKind] = {}
    constraints: list[Constraint] = []
    line_of: dict[str, int] = {}
    free_assign: dict[str, tuple[float, float]] = {}
    header: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    keywords: list[tuple[str, int]] = []
    sections = None
    seen_statement = False

    def define(out_id: str, kind: GeoKind, line: int) -> None:
        if out_id in kinds:
            raise DslSyntaxError(line, f"duplicate id {out_id!r}")
        kinds[out_id] = kind
        line_of[out_id] = line

    def require(ref: str, want: GeoKind, line: int) -> None:
        if ref not in kinds:
            raise DslUnresolvedId(line, f"undefined id {ref!r}")
        if kinds[ref] is not want:
            raise DslSyntaxError(line, f"{ref!r} is a {kinds[ref].value}, expected a {want.value}")

    lines = enumerate(text.split("\n"), start=1)
    for lineno, raw in lines:
        content, _, comment = raw.partition("%")
        if not content.strip() and comment and not seen_statement:
            header_match = _HEADER_RE.match(raw.strip())
            if header_match:
                key, value = header_match.groups()
                if key == "keyword":
                    keywords.append((value, lineno))
                elif key in header:
                    raise DslSyntaxError(lineno, f"repeated header {key!r}")
                else:
                    header[key] = value, lineno
            continue
        tokens = _line_tokens(content, lineno)
        if not tokens:
            continue
        seen_statement = True
        keyword, _ = tokens[0]
        if keyword == "prove":
            if sections is not None:
                raise DslSyntaxError(lineno, "only one prove block is allowed")
            block = tokens[1:]
            if "}" not in content:  # the block runs to the first line holding a '}'
                for block_lineno, raw in lines:
                    content = raw.partition("%")[0]
                    block += _line_tokens(content, block_lineno)
                    if "}" in content:
                        break
                else:
                    raise DslSyntaxError(lineno, "unterminated prove block")
            sections = _parse_prove_block(iter(block), lineno)
            prove_line = lineno
            continue
        kind = _STATEMENTS.get(keyword)
        if kind is None:
            raise DslSyntaxError(lineno, f"unknown statement {keyword!r}")
        if construction_element_count(len(constraints) + 1, len(constraints) + 1) > MAX_XML_ELEMENTS:
            raise DslSyntaxError(lineno, f"construction written with more than {MAX_XML_ELEMENTS} elements")
        if kind is ConstraintKind.FREE_POINT:
            if len(tokens) != 4:
                raise DslSyntaxError(lineno, "usage: point <id> <x> <y>")
            out_id = _check_id_token(tokens[1][0], lineno)
            define(out_id, GeoKind.POINT, lineno)
            x = _parse_number(tokens[2][0], lineno)
            y = _parse_number(tokens[3][0], lineno)
            free_assign[out_id] = (x, y)
            constraints.append(Constraint(output=out_id, kind=kind))
            continue
        in_kinds, out_kind, param_attr = CONSTRAINT_SIGNATURES[kind]
        want = 2 + len(in_kinds) + (param_attr is not None)
        if len(tokens) != want:
            raise DslSyntaxError(lineno, f"{keyword} takes {want - 2} arguments")
        out_id = _check_id_token(tokens[1][0], lineno)
        inputs = []
        for (ref, _), want_kind in zip(tokens[2 : 2 + len(in_kinds)], in_kinds):
            _check_id_token(ref, lineno)
            require(ref, want_kind, lineno)
            inputs.append(ref)
        parameter = _parse_number(tokens[-1][0], lineno) if param_attr is not None else None
        define(out_id, out_kind, lineno)
        constraints.append(Constraint(output=out_id, kind=kind, inputs=tuple(inputs), parameter=parameter))

    bare = Construction(elements=(), constraints=tuple(constraints))
    try:
        scene = instantiate(bare, free_assign)
    except DegenerateStep as exc:
        raise DegenerateInitialInstance(
            line_of.get(exc.step_id, 1), f"step {exc.step_id!r} is degenerate: {exc.reason}"
        ) from exc

    elements = tuple(
        ElementInstance(c.output, kinds[c.output], tuple(scene[c.output])) for c in constraints
    )
    construction = Construction(elements=elements, constraints=tuple(constraints))

    conjecture = None
    if sections is not None:
        conjecture = Conjecture(
            hypothesis=tuple(p for p, _ in sections["hyp"]),
            ndg=tuple(p for p, _ in sections["ndg"]),
            conclusion=tuple(p for p, _ in sections["conclude"]),
        )
        lists = {"hypothesis": sections["hyp"], "ndg": sections["ndg"], "conclusion": sections["conclude"]}
        _refuse_first(validate_conjecture(conjecture, construction), lists, prove_line)

    info = None
    if header or keywords:
        if "name" not in header:
            raise DslSyntaxError(1, "header needs a '% name:' line when metadata is present")
        info = ProblemInfo(
            name=header["name"][0],
            description=header["description"][0] if "description" in header else "",
            keywords=tuple(keyword for keyword, _ in keywords),
        )
        _refuse_first(validate_info(info), {"keywords": keywords}, header["name"][1])
    return Problem(construction=construction, info=info, conjecture=conjecture)


# ---------------------------------------------------------------------------
# Emission


def _term_text(t: Term) -> str:
    name = TERM_NAMES[type(t)]
    if isinstance(t, Const):
        return f"{name} {format_number(t.value)}"
    if isinstance(t, SegmentLength):
        return f"{name} {t.a} {t.b}"
    return f"{name} {_term_text(t.left)} {_term_text(t.right)}"


def predicate_text(p: Predicate) -> str:
    """Fixed prefix notation shared by the DSL and the prover input."""

    name = PREDICATE_NAMES[type(p)]
    if isinstance(p, Equal):
        return f"{name} {_term_text(p.left)} {_term_text(p.right)}"
    text = " ".join((name,) + predicate_point_ids(p))
    return f"{text} {format_number(p.ratio)}" if isinstance(p, SegmentRatio) else text


def _one_line(text: str) -> str:
    """``text`` with each run of whitespace, newlines included, made one
    space, so that no header value can start a statement of its own."""

    return " ".join(text.split())


def _step_text(name: str, c: Constraint) -> str:
    """One construction step with its stored parameter, if its kind has one."""

    parts = [name, c.output, *c.inputs]
    if CONSTRAINT_SIGNATURES[c.kind][2] is not None:
        parts.append(format_number(c.parameter or 0.0))
    return " ".join(parts)


def emit_dsl(problem: Problem) -> str:
    """Canonical DSL text; parse_dsl is its inverse within DSL coverage.
    Invalid information, or a free point with no point instance, raises
    CodecError, carrying the violations that validate_info or, for the
    step, validate_construction reports."""

    points = {e.id: e.coords for e in problem.construction.elements if e.kind is GeoKind.POINT}
    lines: list[str] = []
    if problem.info is not None:
        _refuse(validate_info(problem.info))
        lines.append(f"% name: {problem.info.name}")
        if problem.info.description:
            lines.append(f"% description: {_one_line(problem.info.description)}")
        for kw in problem.info.keywords:
            lines.append(f"% keyword: {_one_line(kw)}")
    for i, c in enumerate(problem.construction.constraints):
        if c.kind is ConstraintKind.OPAQUE:
            raise OpaqueConstraintError(c.output)
        if c.kind is ConstraintKind.FREE_POINT:
            if c.output not in points:
                step = f"/construction/constraints/{c.kind.value}[{i}]"
                faults = validate_construction(problem.construction)
                raise CodecError([v for v in faults if v.path == step and v.code in ("MissingElement", "KindMismatch")])
            x, y = points[c.output][:2]
            lines.append(f"point {c.output} {format_number(x)} {format_number(y)}")
        else:
            lines.append(_step_text(_STATEMENT_KEYWORDS[c.kind], c))
    if problem.conjecture is not None:
        lines.append("prove {")
        for keyword, preds in (
            ("hyp", problem.conjecture.hypothesis),
            ("ndg", problem.conjecture.ndg),
            ("conclude", problem.conjecture.conclusion),
        ):
            for p in preds:
                lines.append(f"  {keyword} {predicate_text(p)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def emit_prover_input(problem: Problem) -> str:
    """Line-oriented neutral prover statement (versioned, .gpi).  Invalid
    information raises CodecError, as in :func:`emit_dsl`."""

    if problem.conjecture is None:
        raise NoConjectureError()
    lines = ["gpi 1"]
    if problem.info is not None:
        _refuse(validate_info(problem.info))
        lines.append(f"problem {problem.info.name}")
    lines.append("construction:")
    for c in problem.construction.constraints:
        if c.kind is ConstraintKind.OPAQUE:
            raise OpaqueConstraintError(c.output)
        lines.append(_step_text(c.kind.value, c))
    for heading, preds in (
        ("ndg:", problem.conjecture.ndg),
        ("hypothesis:", problem.conjecture.hypothesis),
        ("conclude:", problem.conjecture.conclusion),
    ):
        if not preds:
            continue  # empty sections are omitted
        lines.append(heading)
        for p in preds:
            lines.append(predicate_text(p))
    return "\n".join(lines) + "\n"
