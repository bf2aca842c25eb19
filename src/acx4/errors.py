"""Exception types for the fan/graph calculus.

Everything user-triggerable derives from DomainError (a ValueError), which
the CLI maps to exit code 1.  InternalInconsistency is different: it flags a
violated theorem or a broken internal cross-check, i.e. a bug, never a bad
input, and is deliberately left outside the DomainError hierarchy; the
CLI maps it to exit code 3.  digit_limit turns the interpreter's refusal
to print an over-long integer into a DomainError.
"""

import sys
from contextlib import contextmanager


class DomainError(ValueError):
    """Invalid input or an unsatisfiable request."""


class PreconditionViolated(DomainError):
    """An operation was called outside its stated domain."""


# --- multi-fan validation -------------------------------------------------

class TooShort(DomainError):
    def __init__(self, k):
        super().__init__(f"a multi-fan needs at least 3 vectors, got {k}")
        self.k = k


class ZeroVector(DomainError):
    def __init__(self, index):
        super().__init__(f"vector at index {index} is (0, 0)")
        self.index = index


class NotABasis(DomainError):
    def __init__(self, index):
        super().__init__(
            f"consecutive vectors ending at index {index} do not form a lattice basis")
        self.index = index


class OrientationFlip(DomainError):
    def __init__(self, index):
        super().__init__(
            f"turning direction flips at index {index}: no integer recurrence exists")
        self.index = index


# --- graph validation -----------------------------------------------------

class UnknownVertex(DomainError):
    def __init__(self, vertex):
        super().__init__(f"unknown vertex {vertex!r}")
        self.vertex = vertex


class ZeroLabel(DomainError):
    def __init__(self, edge):
        super().__init__(f"edge {edge.src!r} -> {edge.dst!r} has label (0, 0)")
        self.edge = edge


class SelfLoop(DomainError):
    def __init__(self, edge):
        super().__init__(f"self-loop at vertex {edge.src!r}")
        self.edge = edge


class MultiEdge(DomainError):
    def __init__(self, u, v):
        super().__init__(f"more than one edge joins {u!r} and {v!r}")
        self.pair = (u, v)


class NotTwoRegular(DomainError):
    def __init__(self, vertex, degree):
        super().__init__(f"vertex {vertex!r} meets {degree} edge ends, expected 2")
        self.vertex = vertex
        self.degree = degree


class WeightsNotBasis(DomainError):
    def __init__(self, vertex):
        super().__init__(f"the two weights at vertex {vertex!r} are not a lattice basis")
        self.vertex = vertex


class RecurrenceFails(DomainError):
    def __init__(self, edges):
        labels = ", ".join(str(e.label) for e in edges)
        super().__init__(
            f"labels {labels} along the cycle admit no integer recurrence")
        self.edges = tuple(edges)


# --- rewrites ---------------------------------------------------------------

class IndexOutOfRange(DomainError):
    def __init__(self, index, size):
        super().__init__(f"index {index} out of range for size {size}")
        self.index = index
        self.size = size


class NotBlowDownable(DomainError):
    def __init__(self, where):
        super().__init__(f"no blow-down available at {where!r}: "
                         "the vector is not the sum of its neighbors")
        self.where = where


class MoveInapplicable(DomainError):
    def __init__(self, index, reason):
        super().__init__(f"move {index} does not apply: {reason}")
        self.index = index
        self.reason = reason


class NotToddOne(DomainError):
    def __init__(self, winding):
        super().__init__(
            f"normalization needs winding number 1, got {winding}")
        self.winding = winding


# --- constructors and realizers ---------------------------------------------

class NonPositiveInput(DomainError):
    def __init__(self, name, value):
        super().__init__(f"{name} must be a positive integer, got {value!r}")
        self.name = name
        self.value = value


class NotRealizable(DomainError):
    def __init__(self, n0, n1):
        super().__init__(
            f"no family has these Chern numbers: they invert to n0={n0}, n1={n1}")
        self.n0 = n0
        self.n1 = n1


# --- documents ----------------------------------------------------------------

class ParseError(DomainError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownFormat(DomainError):
    def __init__(self, tag):
        super().__init__(f"unknown document format {tag!r}")
        self.tag = tag


@contextmanager
def digit_limit():
    """Raise a DomainError naming the int/str digit limit in place of the
    ValueError that printing an integer past it raises; wrap only code
    whose one possible ValueError is that one."""
    try:
        yield
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"an integer exceeds the int/str limit of {limit} digits") from None


class InternalInconsistency(RuntimeError):
    """A cross-check that valid inputs can never trip has failed: a bug."""
