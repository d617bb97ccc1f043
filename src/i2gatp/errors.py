"""Exception hierarchy shared by all i2gatp modules.

Validation problems that are *data* (a document or container being checked)
are reported as :class:`~i2gatp.model.Violation` lists, not exceptions.  The
exceptions below cover operations that cannot produce a partial result:
parsing, packing, numeric evaluation.
"""

from __future__ import annotations


class I2gatpError(Exception):
    """Base class for all errors raised by this package."""


class CodecError(I2gatpError):
    """An XML document could not be parsed into a model value, or a model
    value could not be built or written (a term deeper than MAX_TERM_DEPTH).

    Carries the full violation list found before parsing gave up; the first
    violation's code is the headline reason (also exposed as ``code``).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        head = self.violations[0]
        self.code = head.code
        super().__init__(f"{head.code} at {head.path}: {head.message}")


class ContainerError(I2gatpError):
    """A zip container violated the layout contract (bad path, missing
    intergeo.xml, malformed archive, duplicate proof attempt, ...)."""

    def __init__(self, code: str, message: str, violations=()):
        self.code = code
        self.violations = list(violations)
        super().__init__(f"{code}: {message}")


class EvalError(I2gatpError):
    """Base class for numeric evaluation failures."""


class DegenerateStep(EvalError):
    """A construction step hit a degenerate configuration (coincident
    points handed to a line, parallel lines handed to an intersection)."""

    def __init__(self, step_id: str, reason: str):
        self.step_id = step_id
        self.reason = reason
        super().__init__(f"degenerate step {step_id}: {reason}")


class OpaqueConstraintError(EvalError):
    """Numeric evaluation reached a constraint carried opaquely."""

    def __init__(self, constraint_id: str):
        self.constraint_id = constraint_id
        super().__init__(f"constraint {constraint_id} is opaque and cannot be evaluated")


class UnresolvedIdError(EvalError):
    """An id does not name any object of the construction/scene."""

    def __init__(self, element_id: str):
        self.element_id = element_id
        super().__init__(f"unresolved id: {element_id}")


class KindMismatchError(EvalError):
    """An id resolves to an object of the wrong geometric kind."""

    def __init__(self, element_id: str, expected: str, got: str):
        self.element_id = element_id
        self.expected = expected
        self.got = got
        super().__init__(f"id {element_id}: expected {expected}, got {got}")


class DegeneratePredicateError(EvalError):
    """A predicate's own denominators vanished, or its residual is not
    finite (an overflow on finite coordinates); the predicate is neither
    true nor false on this scene."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"degenerate predicate: {reason}")


class NoConjectureError(I2gatpError):
    """The problem carries no conjecture to check or export."""

    def __init__(self):
        super().__init__("problem has no conjecture")


class DslError(I2gatpError):
    """Base class for textual-DSL failures; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DslSyntaxError(DslError):
    """Malformed DSL statement."""


class DslUnresolvedId(DslError):
    """A DSL statement referenced an id that is not defined yet."""


class DegenerateInitialInstance(DslError):
    """The literal free coordinates make a construction step degenerate."""
