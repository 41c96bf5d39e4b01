"""Exception types shared across the package."""


class RibbonTensorError(Exception):
    """Base class for all errors raised by this package."""


class LabelCountError(RibbonTensorError):
    """An edge label does not occur exactly twice."""

    def __init__(self, label, count):
        super().__init__(f"label {label!r} occurs {count} time(s), expected 2")
        self.label = label
        self.count = count


class RegistryMismatch(RibbonTensorError):
    """The edge registry disagrees with the labels present on the circles."""


class UnknownEdge(RibbonTensorError):
    def __init__(self, label):
        super().__init__(f"no edge labelled {label!r}")
        self.label = label


class SizeLimitExceeded(RibbonTensorError):
    """An operation was asked to run beyond its configured size cap."""


class InvalidArgument(RibbonTensorError):
    """A count, setting or name lies outside the range it must have."""


class InvariantViolation(RibbonTensorError):
    """An internal consistency check failed: a surgery broke its contract."""


class PartitionCoverError(RibbonTensorError):
    """Partition blocks do not cover the universe, or mention foreign items."""


class PartitionOverlapError(RibbonTensorError):
    """Two partition blocks share an item."""


class InvalidCoupling(RibbonTensorError):
    """A coupling does not describe a legal 2-sum."""


class MissingFactor(RibbonTensorError):
    def __init__(self, edge):
        super().__init__(f"no tensor factor supplied for edge {edge!r}")
        self.edge = edge


class MissingVariable(RibbonTensorError):
    def __init__(self, name):
        super().__init__(f"no value assigned to variable {name!r}")
        self.name = name


class SingularMatrix(RibbonTensorError):
    """Exact elimination met a zero pivot column."""


class SingularAtPoint(RibbonTensorError):
    """A transfer matrix is singular at the sampled evaluation point."""


class ParseError(RibbonTensorError):
    """A presentation file or polynomial string failed to parse."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
