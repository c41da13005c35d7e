"""Exception hierarchy for the package.

Everything raised deliberately by this package derives from
:class:`HemiradonError`, so callers can catch one base class at API
boundaries while tests can still assert on the specific subclass.
"""

from __future__ import annotations


class HemiradonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HemiradonError, ValueError):
    """A point, field, or parameter lies outside the domain an operation needs.

    Raised e.g. when a half-space field is evaluated below its boundary,
    when a test-field's support crosses the boundary of the half space it
    must live in, or when a direction vector is (numerically) tangent to
    the hyperplane that a slope/intercept chart cannot represent.
    """


class QuadratureError(HemiradonError, ValueError):
    """A quadrature request is malformed or produced non-finite values.

    Attributes
    ----------
    node:
        Optional location (tuple of floats) of the first offending
        quadrature node, when the failure is a non-finite integrand value.
    """

    def __init__(self, message: str, node: tuple | None = None):
        super().__init__(message)
        self.node = node


class ChainError(HemiradonError, ValueError):
    """An operator chain is malformed (unknown tag, wrong arity, bad domain)."""


class ConfigError(HemiradonError, ValueError):
    """A configuration mapping contains an unknown or ill-typed entry.

    The message names the offending key.
    """
