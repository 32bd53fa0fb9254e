"""Exception hierarchy shared by all cyclesynth modules."""


class CycleSynthError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CycleSynthError):
    pass


class NumericalFailure(CycleSynthError):
    pass


class NotStochastic(CycleSynthError):
    pass


class NotTransient(CycleSynthError):
    pass


class PolicyIncomplete(CycleSynthError):
    pass


class EmptyTarget(CycleSynthError):
    pass


class ImproperPolicy(CycleSynthError):
    """The policy leaves some state with no positive-probability path to the cycle set."""


class NotCommunicating(CycleSynthError):
    pass


class NonConvergence(CycleSynthError):
    pass


class TooLarge(CycleSynthError):
    pass


class InvariantViolation(CycleSynthError):
    pass


class ParseError(CycleSynthError):
    """Raised on malformed input files; carries positional context when available."""

    def __init__(self, message, line=None, key=None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if key is not None:
            ctx.append(f"key {key!r}")
        if ctx:
            message = f"{message} ({', '.join(ctx)})"
        super().__init__(message)
        self.line = line
        self.key = key


class AlphabetMismatch(CycleSynthError):
    pass


class PiUnused(CycleSynthError):
    pass


class UntrackedState(CycleSynthError):
    pass


class NotReachableAlmostSurely(CycleSynthError):
    pass


class NoReachableAmec(CycleSynthError):
    """No accepting maximal end component is reachable with probability 1."""


class ModelMismatch(CycleSynthError):
    pass
