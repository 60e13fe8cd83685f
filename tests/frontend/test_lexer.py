"""MiniOMP lexer."""

import pytest

from repro.frontend.lexer import tokenize
from repro.util.errors import FrontendError


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind != "NEWLINE"]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind != "NEWLINE"]


def test_keywords_become_keyword_tokens():
    assert kinds("func main")[:2] == ["FUNC", "IDENT"]


def test_type_keywords_get_kw_suffix():
    assert kinds("int float bool void")[:4] == [
        "INT_KW",
        "FLOAT_KW",
        "BOOL_KW",
        "VOID_KW",
    ]


def test_integer_vs_float_literals():
    assert kinds("42 4.2 4. 1e3 2.5e-2")[:5] == [
        "INT",
        "FLOAT",
        "FLOAT",
        "FLOAT",
        "FLOAT",
    ]


def test_range_does_not_lex_as_float():
    # "0..10" must be INT DOTDOT INT, not FLOAT '.' INT.
    assert kinds("0..10")[:3] == ["INT", "DOTDOT", "INT"]


def test_two_char_operators():
    assert kinds("<= >= == != && || ->")[:7] == [
        "LE",
        "GE",
        "EQ",
        "NE",
        "AND",
        "OR",
        "ARROW",
    ]


def test_comments_are_skipped():
    assert texts("a // comment here\nb") == ["a", "b", ""]


def test_strings():
    tokens = tokenize('"hello world"')
    assert tokens[0].kind == "STRING"
    assert tokens[0].text == '"hello world"'


def test_line_numbers_tracked():
    tokens = tokenize("a\nb\nc")
    lines = [t.line for t in tokens if t.kind == "IDENT"]
    assert lines == [1, 2, 3]


def test_unexpected_character_reports_position():
    with pytest.raises(FrontendError) as excinfo:
        tokenize("a\n  $")
    assert excinfo.value.line == 2


def test_eof_token_appended():
    assert tokenize("")[-1].kind == "EOF"
