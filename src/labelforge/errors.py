"""Exception types raised across the labeling engine, and the one way to call a service.

Every failure is a ``LabelForgeError``; a subclass exists only where some
caller handles that failure apart from the rest. Both remote clients (the
LLM provider and the embedder) post through ``post_json`` and retry through
``with_retries``: a failed call is tried again, and its caller checks a reply once.
"""

import json
import time

RETRIES = 3  # tries of one remote call, 1 s, 2 s, ... apart


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


def post_json(endpoint: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON to ``endpoint`` and return the decoded JSON reply."""
    import urllib.request  # here, not at the top: it loads http and ssl, which offline runs skip

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(endpoint, data=data, headers=headers)
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def with_retries(service: str, call, tries: int = RETRIES):
    """``call()``'s result, tried up to ``tries`` times, 1 s, 2 s, ... apart; any exception
    fails a try, and after the last ProviderUnreachable names ``service`` and that failure."""
    for attempt in range(tries):
        try:
            return call()
        except Exception as exc:
            last = exc
            if attempt < tries - 1:
                time.sleep(2.0**attempt)
    raise ProviderUnreachable(f"{service} failed after {tries} tries: {last}") from last
