"""The tree-walking genotype mapper, kept as a test oracle.

Before mapping ran over the grammar's integer tables, ``map_chromosome``
walked its ``Rule``, ``Production`` and symbol objects, looking rules up
by name. That walk is kept here, unchanged but for its name, so the
table walk can be checked against it field by field.
"""

from __future__ import annotations

from mutreduce.genome import MappingResult, MappingStatus
from mutreduce.grammar import Grammar, Terminal


def oracle_map(chromosome, grammar: Grammar, max_wraps: int) -> MappingResult:
    genes = chromosome.genes
    n = len(genes)
    budget = (max_wraps + 1) * n
    rules = {rule.name: rule for rule in grammar.rules}
    stack: list = [grammar.start]
    tokens: list[str] = []
    reads = 0
    while stack:
        symbol = stack.pop()
        if isinstance(symbol, str):
            productions = rules[symbol].productions
            if len(productions) == 1:
                chosen = productions[0]
            else:
                if reads >= budget:
                    return MappingResult(
                        status=MappingStatus.FAILED,
                        tokens=None,
                        genes_consumed=reads,
                        wraps_used=max_wraps + 1,
                    )
                gene = genes[reads % n]
                reads += 1
                chosen = productions[gene % len(productions)]
            for sym in reversed(chosen.symbols):
                if isinstance(sym, Terminal):
                    if sym.text:
                        stack.append(sym)
                else:
                    stack.append(sym.name)
        else:
            tokens.append(symbol.text)
    wraps = 0 if reads == 0 else (reads - 1) // n
    return MappingResult(
        status=MappingStatus.MAPPED,
        tokens=tuple(tokens),
        genes_consumed=reads,
        wraps_used=wraps,
    )
