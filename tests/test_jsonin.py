"""The decoder of JSON read from outside the program."""

from __future__ import annotations

import json

import pytest

from archmeta.jsonin import decode_json


@pytest.mark.parametrize("text, offset", [
    ('"\\ud800"', 1),
    ('"\\udc00"', 1),
    ('"\\\\\\ud800"', 3),  # an escaped backslash, then the escape
    ('"\\ud83dx\\ude00"', 1),  # both halves, but not adjacent
    ('"\\ud83d\\ud83d\\ude00"', 1),  # a high half before a pair
    ('["\\n", "\\u00e9", "\\"\\uDBFF"]', 20),
])
def test_lone_surrogate_escape_is_rejected_where_it_starts(text, offset):
    with pytest.raises(json.JSONDecodeError, match="lone surrogate escape") as err:
        decode_json(text)
    assert err.value.pos == offset


@pytest.mark.parametrize("text", [
    '"\\ud83d\\ude00"', '"\\uD83D\\uDE00x"', '"\\\\ud800"', '"a\\\\\\\\ud800"', '"\\u0041"',
    '{"k": ["\\t", 1, 2.5, null]}',
])
def test_paired_surrogates_and_other_escapes_decode_as_json_does(text):
    assert decode_json(text) == json.loads(text)


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000 + "]" * 100_000, "nesting too deep to decode"),
    ('{"n": ' + "9" * 5000 + "}", "integer too long to decode"),
    ('{"n": 1', "Expecting ',' delimiter"),
])
def test_decoder_limits_are_decode_errors(text, message):
    with pytest.raises(json.JSONDecodeError, match=message):
        decode_json(text)
