"""Exception types shared across the package, and the count and work-budget checks.

The structured ones (DeficientSupport, InsufficientDensity, FactorizationFailure)
carry their obstruction as a payload so callers can print or test it.
"""


class DcsetError(Exception):
    """Base class for all package errors."""


class OutOfDomain(DcsetError):
    """A point lies outside the open interval (0, 1)."""


class UndefinedPoint(DcsetError):
    """The cyclic shift is undefined at this point (t = 1 - s)."""


class BadParameter(DcsetError):
    """A constructor or operation parameter is outside its allowed range."""


# The one work limit: every generator, row maker, ensemble, battery and CLI
# size check refuses more than this many points, cells, rounds or steps before
# it allocates; `what` names the product it measures.
WORK_BUDGET = 10_000_000


def check_budget(what: str, work: int) -> None:
    """Refuse, before anything is allocated, work above WORK_BUDGET."""
    if work > WORK_BUDGET:
        raise BadParameter(f"{what} = {work} exceeds the work budget {WORK_BUDGET}")


def check_count(name: str, value: int, least: int = 1) -> None:
    """Refuse a count, size or depth below `least`."""
    if value < least:
        raise BadParameter(f"{name} must be >= {least}, got {value}")


class NotNested(DcsetError):
    """A chain of support masks is not increasing."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"chain is not nested at position {index}")


class DeficientSupport(DcsetError):
    """No probability coupling lives on the support; carries the cheap cover.

    `witness` is the Cover certifying min cover cost < 1; `cost` its exact cost.
    """

    def __init__(self, witness, cost):
        self.witness = witness
        self.cost = cost
        super().__init__(f"support admits a cover of cost {cost} < 1")


class FactorizationFailure(DcsetError):
    """The joint frequency profile does not split into a product f*g."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"max |h - f*g| = {residual} != 0")


class UnsupportedCoupling(DcsetError):
    """A coupling charges a cell outside the support mask, or a dead row."""


class InsufficientDensity(DcsetError):
    """An ensemble is too thin for a uniform selector; carries the obstruction.

    `cover` is the cheap Cover of the sample-by-bin mask; `thin_bins` the value
    bins left uncovered (the region no replica reaches); `cell` names the
    conditioning cell when the failure happened inside a conditional selector.
    """

    def __init__(self, cover, cost, n_bins, cell=None):
        self.cover = cover
        self.cost = cost
        self.cell = cell
        self.thin_bins = frozenset(range(n_bins)) - cover.V
        where = f" in conditioning cell {cell}" if cell is not None else ""
        super().__init__(
            f"no uniform selector{where}: cover cost {cost} < 1, "
            f"thin bins {sorted(self.thin_bins)}"
        )


class DepthExhausted(DcsetError):
    """A replica's enumeration ran out of unused points."""

    def __init__(self, replica):
        self.replica = replica
        super().__init__(f"replica {replica} has no unused enumeration point left")


class TooFewSamples(DcsetError):
    """Not enough samples for the requested statistical test."""


class SparseTable(DcsetError):
    """A contingency table has an expected cell count below the chi-square floor."""


class ParseError(DcsetError):
    """A text input file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SweepTooLarge(DcsetError):
    """An exhaustive mask sweep was requested beyond the n*m <= 16 limit."""
