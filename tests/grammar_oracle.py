"""The character-scanning grammar reader, kept as a test oracle.

``parse_grammar`` once decided where a double quote opens and closes three
times: ``_strip_comment`` and ``_split_alternatives`` each toggled a flag
character by character, and ``_TOKEN`` paired quotes by regex. That reader
is kept here, unchanged but for its name, so the one-pass reader can be
checked against it: ``oracle_grammar`` gives the same ``Grammar`` or raises
the same ``GrammarError`` message on every text in which no ``<...>`` holds
a ``"`` or a ``|``.
"""

from __future__ import annotations

import re

from mutreduce.grammar import (Grammar, GrammarError, NonTerminal, Production, Rule,
                               Symbol, Terminal)

_RULE_HEAD = re.compile(r"^\s*<([^<>\s]+)>\s*::=(.*)$", re.DOTALL)
_TOKEN = re.compile(r'\s*(?:"([^"]*)"|<([^<>\s]+)>|(\S))')


def _strip_comment(line: str) -> str:
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _split_alternatives(text: str, rule_name: str) -> list[str]:
    parts: list[str] = []
    current: list[str] = []
    in_quote = False
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
            current.append(ch)
        elif ch == "|" and not in_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if in_quote:
        raise GrammarError(f"rule <{rule_name}>: unterminated quote")
    parts.append("".join(current))
    return parts


def _parse_symbols(text: str, rule_name: str) -> tuple[Symbol, ...]:
    symbols: list[Symbol] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break
        terminal, non_terminal, stray = match.groups()
        if stray is not None:
            raise GrammarError(
                f"rule <{rule_name}>: unexpected character {stray!r} "
                f"(terminals must be double-quoted)")
        if terminal is not None:
            symbols.append(Terminal(terminal))
        else:
            symbols.append(NonTerminal(non_terminal))
        pos = match.end()
    if not symbols:
        raise GrammarError(f"rule <{rule_name}>: empty alternative "
                           f'(use "" for an explicitly empty one)')
    return tuple(symbols)


def oracle_grammar(text: str) -> Grammar:
    """Parse and validate grammar text; errors carry the offending rule."""
    chunks: list[tuple[str, str]] = []
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line).rstrip()
        if not line.strip():
            continue
        head = _RULE_HEAD.match(line)
        if head:
            chunks.append((head.group(1), head.group(2)))
        elif chunks:
            name, body = chunks[-1]
            chunks[-1] = (name, body + " " + line.strip())
        else:
            raise GrammarError(f"expected a rule, got: {line.strip()!r}")
    rules = []
    for name, body in chunks:
        productions = tuple(
            Production(_parse_symbols(alt, name))
            for alt in _split_alternatives(body, name)
        )
        rules.append(Rule(name=name, productions=productions))
    return Grammar(rules=tuple(rules))
