import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grammar_oracle import oracle_grammar
from mutreduce.grammar import (DEFAULT_GRAMMAR_TEXT, GrammarError, NonTerminal, Terminal,
                               default_grammar, parse_grammar)

# The operator/mutant trimming core of the strategy language, written out
# by hand so the parser is exercised on text the package did not produce.
TRIM_RULES = """\
<mutantStage> ::= "" | <mutantOperation> <mutantStage>
<mutantOperation> ::= "Retain Mutants" <selection>
                    | "Discard Mutants" <selection>
<selection> ::= "Random" "10%" | "Random" "50%"
"""


def rules_by_name(grammar):
    return {rule.name: rule for rule in grammar.rules}


def test_hand_written_rules_parse():
    grammar = parse_grammar(TRIM_RULES)
    assert len(grammar.rules) == 3
    assert grammar.start == "mutantStage"
    assert len(rules_by_name(grammar)["mutantOperation"].productions) == 2


def test_single_terminal_rule():
    grammar = parse_grammar('<a> ::= "x"')
    assert len(grammar.rules) == 1
    rule = grammar.rules[0]
    assert len(rule.productions) == 1
    assert rule.productions[0].symbols == (Terminal("x"),)


def test_undefined_reference_names_the_culprit():
    with pytest.raises(GrammarError, match="<b>"):
        parse_grammar("<a> ::= <b>")


def test_duplicate_rule_rejected():
    with pytest.raises(GrammarError, match="defined twice"):
        parse_grammar('<a> ::= "x"\n<a> ::= "y"')


def test_nonterminating_rule_rejected():
    # <loop> can only ever expand to itself.
    with pytest.raises(GrammarError, match="<loop>"):
        parse_grammar('<a> ::= <loop>\n<loop> ::= <loop> "x"')


def test_empty_terminal_allows_termination():
    grammar = parse_grammar('<list> ::= "" | "item" <list>')
    assert len(rules_by_name(grammar)["list"].productions) == 2


def test_unquoted_terminal_rejected():
    with pytest.raises(GrammarError, match="double-quoted"):
        parse_grammar("<a> ::= x")


def test_empty_alternative_rejected():
    with pytest.raises(GrammarError, match="empty alternative"):
        parse_grammar('<a> ::= "x" |')


def test_unterminated_quote_rejected():
    with pytest.raises(GrammarError, match="unterminated quote"):
        parse_grammar('<a> ::= "x')


def test_comments_and_continuations():
    grammar = parse_grammar(
        "# leading comment\n"
        '<a> ::= "one" <b>  # trailing comment\n'
        '      | "two" <b>\n'
        '<b> ::= "x"\n'
    )
    assert len(rules_by_name(grammar)["a"].productions) == 2


def test_hash_inside_quotes_is_not_a_comment():
    grammar = parse_grammar('<a> ::= "#literal"')
    assert grammar.rules[0].productions[0].symbols == (Terminal("#literal"),)


def test_a_rule_name_may_not_hold_a_bar():
    with pytest.raises(GrammarError) as excinfo:
        parse_grammar('<a|b> ::= "x"')
    assert str(excinfo.value) == """expected a rule, got: '<a|b> ::= "x"'"""


def test_a_reference_may_not_hold_a_quote():
    # Even where the quotes in two names would pair up.
    with pytest.raises(GrammarError) as excinfo:
        parse_grammar('<s> ::= <a"b> <c"d>')
    assert str(excinfo.value) == ("rule <s>: unexpected character '<' "
                                  "(terminals must be double-quoted)")


# Grammar text from the characters the reader treats specially: quotes,
# "#", "|", "<", ">", "::=", tabs, line boundaries (\n, \r\n, \r, \u2028,
# \x85), continuation lines and "". Texts are lines of pieces, or runs of
# single characters, or the built-in grammar with a few characters put in
# or taken out.
PIECES = ['"x"', '"y z"', '""', '"#"', '"|"', '"<a>"', "<a>", "<b>", "<s>",
          "|", '"', "#", "<", ">", "::=", "x", " ", "\t"]
HEADS = ["<a> ::=", "<b> ::=", "<s> ::=", " <a>::=", "<s>\t::= "]
LINE_ENDS = ["\n", "\r\n", "\u2028", "\x85", ""]
CHARS = [*'"#|<>:= \tab', "\n", "\r", "\u2028", "\x85", "::=", '""']
# Where the two readers part: a "<...>" that the oracle's name rule, any
# run of characters but "<", ">" and whitespace, reads as a name holding
# " or |.
NAME_WITH_QUOTE_OR_BAR = re.compile(r'<[^<>\s]*["|][^<>\s]*>')

piece_lines = st.builds(lambda head, pieces, end: head + "".join(pieces) + end,
                        st.sampled_from([""] * 5 + HEADS),
                        st.lists(st.sampled_from(PIECES), max_size=6),
                        st.sampled_from(LINE_ENDS))


@st.composite
def edited_default_grammar(draw):
    text = DEFAULT_GRAMMAR_TEXT
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", *CHARS])) + text[at + draw(st.integers(0, 1)):]
    return text


grammar_texts = st.one_of(
    st.lists(piece_lines, max_size=6).map("".join),
    st.lists(st.sampled_from(CHARS), max_size=30).map("".join),
    edited_default_grammar(),
).filter(lambda text: not NAME_WITH_QUOTE_OR_BAR.search(text))


def grammar_outcome(read, text):
    try:
        return read(text)
    except GrammarError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(text=grammar_texts)
@example(text='<a> ::= "x" "y\n')  # an odd quote count, not a stray quote
@example(text='<a> ::= "x\n  y" | "#" # c')  # a terminal across a continuation
def test_reader_matches_the_scanning_oracle(text):
    """The one-pass reader gives the grammar, or the error message, that
    the character-scanning reader kept in grammar_oracle gives."""
    assert grammar_outcome(parse_grammar, text) == grammar_outcome(oracle_grammar, text)


def test_default_grammar_reads_as_the_oracle_reads_it(grammar):
    assert grammar == oracle_grammar(DEFAULT_GRAMMAR_TEXT)


def test_render_parse_round_trip():
    grammar = default_grammar()
    assert parse_grammar(grammar.render()) == grammar


# ===== the built-in strategy language =====

def test_default_grammar_validates(grammar):
    assert grammar.start == "strategy"
    assert "selection" in rules_by_name(grammar)


def test_default_grammar_option_counts_fit_gene_bounds(grammar):
    # Uniform gene mod n is only unbiased when n divides the gene range;
    # every rule must at minimum have no more options than gene values.
    for rule in grammar.rules:
        assert len(rule.productions) <= 180
        assert 180 % len(rule.productions) == 0


def test_default_grammar_derives_the_six_step_showcase(grammar):
    """The language must be able to express the full pipeline: retain 80%
    of operators, execute all retained, group mutants by operator, order
    groups by size descending, discard the first two groups, then sample
    10% of each remaining group."""
    from mutreduce.strategy import parse_strategy, render, strategy_from_tokens

    target = ("Retain Operators random 80% → Execute Operators 100% → "
              "Group Mutants by Operator → Order Groups by Size descending → "
              "Discard Groups first 2 → Sample Each Group random 10%")
    strategy = parse_strategy(target)
    assert render(strategy) == target

    # Walk the derivation by hand to prove the grammar generates exactly
    # this token sequence.
    tokens = [
        "Retain Operators", "Random", "80%",
        "Execute Operators", "Random", "100%",
        "Group Mutants by Operator",
        "Order Groups by Size", "Descending",
        "Discard Groups", "First", "2",
        "Sample Each Group", "Random", "10%",
    ]
    assert strategy_from_tokens(tokens) == strategy
    assert _derivable(grammar, tokens)


def _derivable(grammar, tokens):
    """Depth-first search: can the grammar's start symbol yield ``tokens``?"""
    rules = rules_by_name(grammar)

    def match(stack, position):
        if not stack:
            return position == len(tokens)
        head, *rest = stack
        if isinstance(head, Terminal):
            if head.text == "":
                return match(rest, position)
            if position < len(tokens) and tokens[position] == head.text:
                return match(rest, position + 1)
            return False
        for production in rules[head.name].productions:
            if match(list(production.symbols) + rest, position):
                return True
        return False

    return match([NonTerminal(grammar.start)], 0)


def test_grammar_tables_survive_pickling(grammar):
    """Worker processes receive the grammar pickled, tables and all."""
    import pickle

    tables = grammar.tables
    copy = pickle.loads(pickle.dumps(grammar))
    assert copy == grammar
    assert copy.tables == tables


def test_grammar_tables_reverse_symbols_and_drop_empty_terminals():
    grammar = parse_grammar('<s> ::= "x" "" <t> | ""\n<t> ::= "a" <s> "b"')
    productions, terminals = grammar.tables
    assert terminals == ("x", "b", "a")
    assert productions == (((1, ~0), ()), ((~1, 0, ~2),))
