"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: problem-definition errors exit 4,
budget refusals exit 3, certified-empty results exit 2.
"""


class SftError(Exception):
    """Base class for all toolkit errors."""


class SpecError(SftError):
    """A problem definition is semantically invalid (bad symbol, bad shape, ...)."""


class FormatError(SpecError):
    """A document could not be parsed; message carries the offending field path."""


class ShapeError(SftError):
    """Operands have incompatible shapes (assembly grids, matrix products)."""


class WindowRangeError(SftError):
    """A requested window does not fit inside its source block."""


class BudgetError(SftError):
    """A configured enumeration cap would be exceeded.

    `required` names the cap that would let the operation proceed, when that
    is knowable up front; `partial` carries a partial count when work had
    already started, or the part of the result that was complete before the
    stop (a level whose next relation or matrix was refused).
    """

    def __init__(self, message, required=None, partial=None):
        super().__init__(message)
        self.required = required
        self.partial = partial


class EmptyStateError(SftError):
    """An operation needing at least one allowed block was handed an empty level."""


class ArchiveError(SftError):
    """A state archive failed to load (version mismatch or integrity failure)."""
