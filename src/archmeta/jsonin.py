"""Decode JSON text that comes from outside the program.

json.loads takes malformed text to JSONDecodeError, but three inputs it
accepts or trips over in other ways: nesting deeper than the interpreter's
recursion limit (RecursionError), an integer longer than the int-to-string
digit limit (a bare ValueError), and a \\u escape of a lone surrogate, which
decodes to a str no UTF-8 writer can encode. decode_json raises
JSONDecodeError for all three, so every caller's existing handler turns them
into its own typed error. Neither limit is raised.
"""

from __future__ import annotations

import json
import re
from typing import Any

# A lone surrogate escape (group 1), skipping high-low pairs and escaped
# backslashes, so matching from left to right never starts inside an escape.
_SURROGATE = re.compile(
    r"\\(?:\\|u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2}))"
)


def decode_json(text: str) -> Any:
    try:
        value = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep to decode", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the int digit limit
        raise json.JSONDecodeError("integer too long to decode", text, 0) from None
    # strict UTF-8 text holds a surrogate only through a \u escape; the
    # one-character test is a memchr, so text without escapes costs nothing
    if "\\" in text:
        for match in _SURROGATE.finditer(text):
            if match.group(1):
                raise json.JSONDecodeError("lone surrogate escape", text, match.start())
    return value
