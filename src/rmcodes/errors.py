"""The exception types of rmcodes, and its one argument check.

Bad input raises the builtin ValueError (ZeroDivisionError for an inverse of
zero); an input beyond a size or budget bound raises ``TooLarge``, which is
a ValueError too.  ``InternalError`` means the program contradicted itself,
and ``FactorizationIncomplete`` that an integer could not be fully factored.
``check_int`` states the one rule for an integer argument, which every public
entry point runs ahead of any cache: an int, not a bool, and not below its bound.
``check_indices`` applies the same int rule to the entries of a word or message.
"""


class TooLarge(ValueError):
    """The input exceeds a size or budget bound."""


class InternalError(RuntimeError):
    """The program contradicted itself: an invariant or a cross-check failed."""


class FactorizationIncomplete(RuntimeError):
    """A composite cofactor survived every ECM curve of ``ntheory._ECM_ROUNDS``,
    the one bound on ECM work; it is ``.cofactor``."""

    def __init__(self, cofactor: int):
        super().__init__(f"composite cofactor {cofactor} survived every ECM curve")
        self.cofactor = cofactor


def check_int(name: str, value, low: int | None = None, *, optional: bool = False) -> None:
    """ValueError unless ``value`` is an int, not a bool, and at least ``low``
    if one is given, or is None when ``optional``; int subclasses pass.  As it
    runs on every call, an exact int is decided by the first test."""
    if type(value) is int or isinstance(value, int) and not isinstance(value, bool):
        if low is None or value >= low:
            return
    elif optional and value is None:
        return
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"need an int {name}{bound}{' or None' if optional else ''}, got {value!r}")


def check_indices(what: str, entries: tuple, q: int) -> None:
    """ValueError unless every entry of ``entries`` is a field element index in
    [0, q) by the rule of ``check_int``: an int, not a bool; int subclasses pass.
    One pass over the entry types decides the common case, all exact ints."""
    types = set(map(type, entries))
    if types == {int} or all(issubclass(t, int) and not issubclass(t, bool) for t in types):
        if not entries or 0 <= min(entries) and max(entries) < q:
            return
    raise ValueError(f"{what} entries must be field element indices")
