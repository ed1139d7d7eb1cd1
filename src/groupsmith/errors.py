"""Exception hierarchy shared by all groupsmith modules.

The CLI maps these onto exit codes: Falsification -> 1, ParseError and
PreconditionError -> 2, CapExceeded -> 3; any other exception is an
internal error and exits 4.
"""


class GroupsmithError(Exception):
    pass


class ParseError(GroupsmithError, ValueError):
    """A group spec, element string, or equation string failed to parse."""

    def __init__(self, text: str, reason: str, position: int | None = None):
        self.text = text
        self.reason = reason
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"cannot parse {text!r}{where}: {reason}")


class PreconditionError(GroupsmithError, ValueError):
    """An operation was called outside its stated domain.

    Covers cross-group operand mixes, quotients by non-normal subgroups,
    and similar misuse.
    """


class CapExceeded(GroupsmithError):
    """A closure or search outgrew its configured cap."""

    def __init__(self, message: str, partial_count: int | None = None):
        self.partial_count = partial_count
        if partial_count is not None:
            message = f"{message} (partial count: {partial_count})"
        super().__init__(message)


class Falsification(GroupsmithError):
    """A mathematical assertion that should always hold was violated.

    Raising this signals an implementation bug (or a genuinely new
    counterexample), never ordinary misuse.
    """
