"""Exception hierarchy for the superplactic package.

Every domain error raised by this package derives from SuperplacticError,
so callers (and the command line driver) can distinguish bad mathematical
input from genuine bugs.
"""


def _excerpt(value) -> str:
    """The repr of a value for an error message, cut to its first 40
    characters and its total length when longer, so that a huge input
    cannot make an unbounded message."""
    try:
        text = repr(value)
    except ValueError:
        # Past Python's limit on integer-to-string conversion, repr of a
        # huge int, or of a container holding one, raises.
        if isinstance(value, int):
            return "an integer of %d bits" % value.bit_length()
        return "a %s too long to print" % type(value).__name__
    if len(text) <= 40:
        return text
    return "%s... (%d characters)" % (text[:40], len(text))


def _require_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an int of at least `least` (when given):
    "<name> must be an integer, got <value>" or "<name> must be at least <least>"."""
    if not isinstance(value, int):
        raise ValueError("%s must be an integer, got %s" % (name, _excerpt(value)))
    if least is not None and value < least:
        raise ValueError("%s must be at least %d" % (name, least))


def _require_mode(mode) -> None:
    """Raise ValueError unless mode is "row" or "col"."""
    if mode not in ("row", "col"):
        raise ValueError("mode must be 'row' or 'col'")


def _require_indices(indices, n: int) -> tuple:
    """The indices as a tuple; raise ForeignLetterError unless each is an int in range(n)."""
    indices = tuple(indices)
    for i in indices:
        if not (isinstance(i, int) and 0 <= i < n):
            raise ForeignLetterError("letter index %s out of range" % _excerpt(i))
    return indices


def _bound_error(template: str, observed, limit, setting: str) -> "BoundExceededError":
    """The error for a broken size bound: the template with {observed} and
    {limit} cut by _excerpt and {setting} as given, carrying all three."""
    message = template.format(observed=_excerpt(observed), limit=_excerpt(limit), setting=setting)
    return BoundExceededError(message, observed=observed, limit=limit, setting=setting)


def _require_setting(setting: str, value, least: int | None = None, text=None) -> None:
    """Raise unless value is an int of at least `least` (if any); the error shows `text`, if given."""
    if not isinstance(value, int) or (least is not None and value < least):
        floor = "" if least is None else " of at least {limit}"
        raise _bound_error("{setting} must be an integer" + floor + ", got {observed}",
                           value if text is None else text, least, setting)

class SuperplacticError(Exception):
    """Base class for all domain errors raised by this package."""


class AlphabetError(SuperplacticError):
    """Malformed signed alphabet: duplicate symbol, length mismatch, bad parity."""


class ForeignLetterError(SuperplacticError):
    """A symbol or letter index does not belong to the alphabet in play."""


class AlphabetMismatchError(SuperplacticError):
    """Two objects built over different alphabets were combined."""


class ShapeError(SuperplacticError):
    """Malformed partition or skew shape, or a shape-level precondition failed."""


class ValidationError(SuperplacticError):
    """A filling violates the super semistandard conditions.

    Attributes carry the first offending cell (1-based) and which condition
    broke: "row" for the horizontal condition, "column" for the vertical one.
    """

    def __init__(self, message, cell=None, condition=None):
        super().__init__(message)
        self.cell = cell
        self.condition = condition


class CornerError(SuperplacticError):
    """A deletion was requested at a cell that is not a removable corner."""


class BoundExceededError(SuperplacticError):
    """A desk-scale size bound was exceeded; raise the bound explicitly to proceed.

    Attributes say what was seen (`observed`), the bound it broke (`limit`)
    and the name of the argument or environment variable that raises the
    bound (`setting`).
    """

    def __init__(self, message, observed=None, limit=None, setting=None):
        super().__init__(message)
        self.observed = observed
        self.limit = limit
        self.setting = setting


class HypothesisError(SuperplacticError):
    """Input does not satisfy the hypotheses of a restricted theorem.

    Kept distinct from the other domain errors so harnesses can route such
    inputs to unrestricted probes instead of treating them as failures.
    """
