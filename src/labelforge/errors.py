"""Exception types raised across the labeling engine."""


class LabelForgeError(Exception):
    """Base class for all engine errors."""


class MalformedRecord(LabelForgeError):
    def __init__(self, line_number, reason=""):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"malformed record at line {line_number}: {reason}")


class UnknownLabel(LabelForgeError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown label: {name!r}")


class DuplicateId(LabelForgeError):
    def __init__(self, doc_id):
        self.doc_id = doc_id
        super().__init__(f"duplicate document id: {doc_id!r}")


class EmptyLfSet(LabelForgeError):
    pass


class EmptyVocabulary(LabelForgeError):
    pass


class ProviderUnreachable(LabelForgeError):
    pass


class MalformedProviderReply(LabelForgeError):
    def __init__(self, excerpt):
        self.excerpt = excerpt
        super().__init__(f"no valid rules in provider reply: {excerpt[:200]!r}")


class DegenerateSubsample(LabelForgeError):
    pass


class DimensionMismatch(LabelForgeError):
    pass


class AllWeightsZero(LabelForgeError):
    pass


class NoSignal(LabelForgeError):
    pass


class LengthMismatch(LabelForgeError):
    pass


class IdAlignment(LabelForgeError):
    pass


class DegenerateTargets(LabelForgeError):
    pass


class ConfigError(LabelForgeError):
    pass
