"""Exception types shared across the package, the one parse of JSON read
from a file, and how a message quotes a value read from outside."""

import json

QUOTE_CHARS = 60  # the longest quote of an outside value in a message


class CorpusError(ValueError):
    """Raised for malformed corpus files, unknown labels, or split/model mismatches."""


class NumericError(RuntimeError):
    """Raised when training or checking hits a non-finite value."""


class ContainerError(ValueError):
    """Raised for corrupt or incompatible model files."""


def parse_json(text: str, error: type[Exception], where) -> object:
    """``text`` parsed as JSON. Every way the parse can fail raises ``error``
    with the one-line message ``<where>: malformed JSON (<reason>)``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer past sys.get_int_max_str_digits()
        raise error(f"{where}: malformed JSON ({exc})") from exc
    except RecursionError as exc:
        raise error(f"{where}: malformed JSON (nesting too deep)") from exc


def quoted(value) -> str:
    """``repr(value)``, cut to ``QUOTE_CHARS`` characters."""
    text = repr(value)
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS - 3] + "..."
