"""BNF grammars describing the space of reduction strategies.

A rule opens a line; any other non-blank line continues the rule above:

    # comment
    <name> ::= "terminal" <other> | "alternative two"
             | "alternative three"

Terminals are double-quoted; the empty terminal ``""`` expands to nothing
and gives list-shaped rules their stop alternative. A ``#`` outside quotes
starts a comment. A name holds no whitespace, ``<``, ``>``, ``"`` or ``|``.
The first rule is the start symbol, and the order of a rule's alternatives
is part of the genotype encoding. Validation rejects grammars that
reference undefined non-terminals, define a rule twice, or contain a rule
that cannot reach a finite derivation, so genotype mapping always
terminates on a validated grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


class GrammarError(ValueError):
    """Raised for malformed or non-terminating grammar text."""


@dataclass(frozen=True)
class Terminal:
    text: str

    def render(self) -> str:
        return f'"{self.text}"'


@dataclass(frozen=True)
class NonTerminal:
    name: str

    def render(self) -> str:
        return f"<{self.name}>"


Symbol = Terminal | NonTerminal


@dataclass(frozen=True)
class Production:
    symbols: tuple[Symbol, ...]

    def render(self) -> str:
        return " ".join(s.render() for s in self.symbols)


@dataclass(frozen=True)
class Rule:
    name: str
    productions: tuple[Production, ...]


@dataclass(frozen=True)
class Grammar:
    """Validated rule set; the first rule is the start symbol."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        _validate(self.rules)

    @property
    def start(self) -> str:
        return self.rules[0].name

    @cached_property
    def tables(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple[str, ...]]:
        """(productions, terminals): the grammar as integers, for genotype
        mapping. ``productions[r]`` lists rule r's productions, each as its
        symbols reversed (ready to push on a stack): a rule index >= 0 for
        a non-terminal, ``~t`` for terminal text ``terminals[t]``. Empty
        terminals expand to nothing and are dropped. Rule 0 is the start."""
        index = {rule.name: i for i, rule in enumerate(self.rules)}
        terminals: dict[str, int] = {}
        productions = tuple(
            tuple(tuple(index[s.name] if isinstance(s, NonTerminal)
                        else ~terminals.setdefault(s.text, len(terminals))
                        for s in reversed(production.symbols)
                        if isinstance(s, NonTerminal) or s.text)
                  for production in rule.productions)
            for rule in self.rules)
        return productions, tuple(terminals)

    def render(self) -> str:
        lines = []
        for rule in self.rules:
            alternatives = " | ".join(p.render() for p in rule.productions)
            lines.append(f"<{rule.name}> ::= {alternatives}")
        return "\n".join(lines) + "\n"


def _validate(rules: tuple[Rule, ...]) -> None:
    if not rules:
        raise GrammarError("grammar has no rules")
    seen: set[str] = set()
    for rule in rules:
        if rule.name in seen:
            raise GrammarError(f"rule <{rule.name}> defined twice")
        seen.add(rule.name)
        if not rule.productions:
            raise GrammarError(f"rule <{rule.name}> has no productions")
    defined = {rule.name for rule in rules}
    for rule in rules:
        for production in rule.productions:
            for symbol in production.symbols:
                if isinstance(symbol, NonTerminal) and symbol.name not in defined:
                    raise GrammarError(
                        f"rule <{rule.name}> references undefined non-terminal "
                        f"<{symbol.name}>")
    # Every rule must be able to reach a finite derivation, otherwise the
    # genotype mapper could loop forever without consuming genes.
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.name in productive:
                continue
            for production in rule.productions:
                if all(isinstance(s, Terminal) or s.name in productive
                       for s in production.symbols):
                    productive.add(rule.name)
                    changed = True
                    break
    dead = [rule.name for rule in rules if rule.name not in productive]
    if dead:
        raise GrammarError(
            "rules cannot terminate (every derivation is infinite): "
            + ", ".join(f"<{name}>" for name in dead))


# The lexical rule, stated once: the name of a rule head or a reference,
# and a double-quoted terminal. Every other pattern is built from these.
_NAME = r'[^<>\s"|]+'
_QUOTED = r'"[^"]*"'
_RULE_HEAD = re.compile(rf"<({_NAME})>\s*::=(.*)")
# A line up to its comment, the first "#" outside quotes. A quote left
# open runs to the end of its line, so a "#" after it is text.
_CODE = re.compile(rf'(?:[^"#]|{_QUOTED})*(?:".*)?')
_TOKEN = re.compile(rf"\s*(?:({_QUOTED})|<({_NAME})>|(\S))")


def _productions(name: str, body: str) -> tuple[Production, ...]:
    """A rule body's alternatives in one token pass. An added "|", outside
    quotes once they pair up, ends the last alternative as it does others."""
    if body.count('"') % 2:
        raise GrammarError(f"rule <{name}>: unterminated quote")
    productions: list[Production] = []
    symbols: list[Symbol] = []
    for quoted, reference, other in _TOKEN.findall(body + "|"):
        if quoted:
            symbols.append(Terminal(quoted[1:-1]))
        elif reference:
            symbols.append(NonTerminal(reference))
        elif other != "|":
            raise GrammarError(f"rule <{name}>: unexpected character {other!r} "
                               f"(terminals must be double-quoted)")
        elif not symbols:
            raise GrammarError(f"rule <{name}>: empty alternative "
                               f'(use "" for an explicitly empty one)')
        else:
            productions.append(Production(tuple(symbols)))
            symbols = []
    return tuple(productions)


def parse_grammar(text: str) -> Grammar:
    """Parse and validate grammar text; errors carry the offending rule."""
    chunks: list[tuple[str, str]] = []
    for raw_line in text.splitlines():
        line = _CODE.match(raw_line).group().strip()
        if not line:
            continue
        if head := _RULE_HEAD.match(line):
            chunks.append((head[1], head[2]))
        elif chunks:
            name, body = chunks[-1]
            chunks[-1] = (name, f"{body} {line}")
        else:
            raise GrammarError(f"expected a rule, got: {line!r}")
    return Grammar(rules=tuple(Rule(name, _productions(name, body)) for name, body in chunks))


# The built-in strategy language. Option order is part of the genotype
# encoding: reordering alternatives changes what existing chromosomes mean.
DEFAULT_GRAMMAR_TEXT = """\
# Reduction strategies: trim the operator pool, execute part of it, then
# trim the generated mutants, optionally working on per-operator groups.
<strategy> ::= <operatorStage> <executeOperators> <mutantStage>

<operatorStage> ::= "" | <operatorOperation> <operatorStage>
<operatorOperation> ::= "Retain Operators" <selection>
                      | "Discard Operators" <selection>

<executeOperators> ::= "Execute Operators" <selection>

<mutantStage> ::= "" | <mutantOperation> <mutantStage>
<mutantOperation> ::= "Retain Mutants" <selection>
                    | "Discard Mutants" <selection>
                    | <groupPipeline>

<groupPipeline> ::= "Group Mutants by Operator" <groupStage> "Sample Each Group" <selection>
<groupStage> ::= "" | <groupOperation> <groupStage>
<groupOperation> ::= "Order Groups by Size" <direction>
                   | "Retain Groups" <edge> <count>
                   | "Discard Groups" <edge> <count>

<direction> ::= "Ascending" | "Descending"
<edge> ::= "First" | "Last"

<selection> ::= "Random" <percentage> | "Random" <quantity>
<percentage> ::= "10%" | "20%" | "30%" | "40%" | "50%" | "60%" | "70%" | "80%" | "90%" | "100%"
<quantity> ::= "1" | "2" | "3" | "4" | "5" | "6" | "7" | "8" | "9" | "10"
<count> ::= "1" | "2" | "3" | "4" | "5" | "6" | "7" | "8" | "9" | "10"
"""


def default_grammar() -> Grammar:
    return parse_grammar(DEFAULT_GRAMMAR_TEXT)
