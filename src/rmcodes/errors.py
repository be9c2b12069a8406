"""The exception types of rmcodes.

Bad input raises the builtin ValueError (ZeroDivisionError for an inverse of
zero); an input beyond a size or budget bound raises ``TooLarge``, which is
a ValueError too.  ``InternalError`` means the program contradicted itself,
and ``FactorizationIncomplete`` that an integer could not be fully factored.
"""


class TooLarge(ValueError):
    """The input exceeds a size or budget bound."""


class InternalError(RuntimeError):
    """The program contradicted itself: an invariant or a cross-check failed."""


class FactorizationIncomplete(RuntimeError):
    """A composite cofactor survived the ECM budget; it is ``.cofactor``."""

    def __init__(self, cofactor: int):
        super().__init__(f"composite cofactor {cofactor} not factored within budget")
        self.cofactor = cofactor
