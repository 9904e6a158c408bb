"""Exception hierarchy with stable, module-qualified error codes.

The CLI maps these onto structured JSON errors; the ``code`` attribute is
the machine-readable identifier, the message is for humans.
"""


class ToeplitzError(Exception):
    code = "error"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ParseError(ToeplitzError):
    code = "substitution/parse"


class ArgumentParseError(ParseError):
    """A malformed command-line value (a range, digits, a scale), which
    belongs to no one layer."""
    code = "cli/parse"


class ValidationError(ToeplitzError):
    code = "validation"


class NotPrimitive(ToeplitzError):
    code = "substitution/not-primitive"


class PeriodicSubstitution(ToeplitzError):
    code = "substitution/periodic"


class StabilizationError(ToeplitzError):
    code = "substitution/height-unstable"


class PureBaseError(ToeplitzError):
    code = "substitution/pure-base-invalid"


class PreconditionError(ToeplitzError):
    code = "precondition"


class DepthError(ToeplitzError):
    code = "semicocycle/depth"


class HorizonError(ToeplitzError):
    code = "semicocycle/horizon"


class LanguageError(ToeplitzError):
    code = "semicocycle/language"
