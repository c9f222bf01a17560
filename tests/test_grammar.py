import pytest

from mutreduce.grammar import (GrammarError, NonTerminal, Terminal,
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
