"""Exception types raised across the package.

Every failure that a caller might want to branch on gets its own class.
The rejections derive from TdpError, so `except TdpError` catches any
domain-level rejection while programming errors (TypeError, ...) and
InvariantViolation, a failed internal check, pass through untouched.
"""

from __future__ import annotations


class TdpError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(TdpError):
    """Malformed JSON input, unknown field spec, or oversized instance."""


class FieldMismatch(TdpError):
    """Operands live over different fields."""


class DimensionMismatch(TdpError):
    """Operands have incompatible shapes or ambient dimensions."""


class NotDiagonalizableOverField(TdpError):
    """An operator has no eigenbasis over its ground field.

    `side` is "A" or "Astar" when raised during pair validation, else None;
    `spaces` holds the (eigenvalue, eigenspace) pairs eigen_decompose found.
    """

    def __init__(self, message: str, side: str | None = None, spaces: tuple = ()):
        super().__init__(message)
        self.side, self.spaces = side, spaces


class NoTridiagonalOrdering(TdpError):
    """No ordering of one operator's eigenspaces makes the other act
    block-tridiagonally.  `side` names the operator whose eigenspaces
    could not be ordered ("A" or "Astar")."""

    def __init__(self, message: str, side: str):
        super().__init__(message)
        self.side = side


class DiameterMismatch(TdpError):
    """The two operators have different numbers of eigenspaces."""


class NotIrreducible(TdpError):
    """A proper nonzero common invariant subspace exists.

    `witness` is a Subspace invariant under both operators.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InconclusiveIrreducibility(TdpError):
    """The irreducibility test could not reach a verdict.

    Carries a diagnostic string describing what was tried.
    """

    def __init__(self, message: str, diagnostic: str = ""):
        super().__init__(message)
        self.diagnostic = diagnostic or message


class HypothesisNotMet(TdpError):
    """An operation's mathematical hypothesis fails (wrong membership,
    zero vector where a nonzero one is required, ...)."""


class DiameterZero(TdpError):
    """Operation requires diameter at least one."""


class TauImageVanished(TdpError):
    """A product of shifted operators annihilated a vector it must not.

    Carries the vector `u` and the index `i` at which the image became
    zero; feeds the reducibility-witness construction.
    """

    def __init__(self, message: str, u=None, index: int | None = None):
        super().__init__(message)
        self.u = u
        self.index = index


class NotLeonardError(TdpError):
    """Operation requires a Leonard pair (all eigenspaces 1-dimensional)."""


class EigenspaceMismatch(TdpError):
    """Two pairs expected to share all eigenspaces do not.

    `side` names the disagreeing operator ("A" or "Astar") and `index`
    the first ordering position where the eigenspaces differ.
    """

    def __init__(self, message: str, side: str | None = None, index: int | None = None):
        super().__init__(message)
        self.side = side
        self.index = index


class InvalidLeonardParameters(TdpError):
    """Parameter sequences violate a distinctness or nonvanishing rule."""


class ZeroVarphi(InvalidLeonardParameters):
    """The first split sequence contains a zero entry."""


class GeneratedPairInvalid(TdpError):
    """A constructed candidate failed validation.  `cause` is the
    underlying TdpError."""

    def __init__(self, message: str, cause: TdpError | None = None):
        super().__init__(message)
        self.cause = cause


class ExhaustedRetries(TdpError):
    """Random generation gave up after the retry budget."""


class FieldTooSmall(TdpError):
    """The field cannot host the requested number of distinct eigenvalues."""


class BudgetZero(TdpError):
    """A search was configured with no candidate budget."""


class InvariantViolation(Exception):
    """Internal consistency check failed; indicates a bug, not bad input,
    so it is not a TdpError."""
