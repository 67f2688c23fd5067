"""Exception types shared across the package.

The split matters for the command line tool: parse/usage problems and
domain precondition violations map to different exit codes.
"""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class GroundMismatchError(PreconditionError):
    """Operands live over different ground sets."""


class SizeLimitError(PreconditionError):
    """A computation would exceed the enforced size cap."""


class MalformedCertificateError(ValueError):
    """A certificate is structurally invalid, as opposed to merely false."""


class ParseError(ValueError):
    """Syntax or validation error in polynomial text; carries the offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
