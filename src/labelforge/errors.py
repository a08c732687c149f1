"""Exception types raised across the labeling engine.

Every failure is a ``LabelForgeError``; a subclass exists only where some
caller handles that failure apart from the rest.
"""


class LabelForgeError(Exception):
    """Base class for all engine errors."""


class MalformedRecord(LabelForgeError):
    def __init__(self, line_number, reason=""):
        self.line_number = line_number
        super().__init__(f"malformed record at line {line_number}: {reason}")


class ProviderUnreachable(LabelForgeError):
    pass


class MalformedProviderReply(LabelForgeError):
    def __init__(self, excerpt):
        super().__init__(f"no valid rules in provider reply: {excerpt[:200]!r}")


class DegenerateSubsample(LabelForgeError):
    pass


class IdAlignment(LabelForgeError):
    pass


class ConfigError(LabelForgeError):
    pass
