import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.genome import (Chromosome, GeneBounds, LengthLimits,
                              MappingStatus, crossover, duplicate,
                              map_chromosome, mutate, prune,
                              random_chromosome)
from mutreduce.grammar import default_grammar, parse_grammar

from mapping_oracle import oracle_map


def options_grammar(k):
    """One rule with k distinguishable terminal options."""
    alternatives = " | ".join(f'"o{i}"' for i in range(k))
    return parse_grammar(f"<pick> ::= {alternatives}")


class StubRng:
    """Feeds a fixed queue of values to integers(); random() unused."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high=None, size=None):
        assert size is None, "stub only serves scalar draws"
        return self.values.pop(0)


# ===== chromosome basics =====

def test_chromosome_requires_genes():
    with pytest.raises(ValueError):
        Chromosome(())


@pytest.mark.parametrize("genes", [
    (1.7, 2), (np.float64(2.9),), ("7",), (True, 4), (4, np.bool_(True)), (-5, 3),
    (3, np.int64(-1)), (None,),
])
def test_chromosome_rejects_genes_it_cannot_serialize(genes):
    with pytest.raises(ValueError, match="not an integer >= 0"):
        Chromosome(genes)


def test_chromosome_stores_numpy_integer_genes_as_int():
    c = Chromosome((np.int64(3), np.uint8(200), 7))
    assert c.genes == (3, 200, 7)
    assert all(type(g) is int for g in c.genes)


@settings(max_examples=200, deadline=None)
@given(genes=st.lists(st.integers(0, 2**70), min_size=1, max_size=120))
def test_chromosome_text_round_trips(genes):
    c = Chromosome(tuple(genes))
    assert Chromosome.deserialize(c.serialize()) == c


def test_variation_builds_chromosomes_of_int_genes(grammar):
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_chromosome(rng), random_chromosome(rng)
        for child in crossover(a, b, rng):
            for c in (child, mutate(child, rng, 0.2), prune(child, grammar, rng),
                      duplicate(child, rng)):
                assert all(type(g) is int for g in c.genes)
                assert Chromosome(c.genes) == c


def test_chromosome_serialization_round_trip():
    c = Chromosome((0, 5, 179, 42))
    assert Chromosome.deserialize(c.serialize()) == c
    with pytest.raises(ValueError):
        Chromosome.deserialize("1,two,3")


@pytest.mark.parametrize("text", [
    " 3,4", "3,4 ", "+3,4", "03,4", "00", "\u0663,4", "3_000,4", "-5,2", "3,,4",
    "3,4,", "", "3\n", "\uff13,4",
])
def test_deserialize_accepts_only_serialized_text(text):
    with pytest.raises(ValueError, match="bad chromosome text"):
        Chromosome.deserialize(text)
    with pytest.raises(ValueError, match="bad chromosome text"):
        Chromosome.check_text(text)


@pytest.mark.parametrize("text", ["0", "3,4", "0,10,179", "1000000"])
def test_deserialize_round_trips_canonical_text(text):
    assert Chromosome.deserialize(text).serialize() == text
    Chromosome.check_text(text)


# Genes near 640 digits, the lowest digit limit Python lets int() be set
# to, and past 4,300, the default one, among other cells and a leading zero.
LONG_GENE_TEXTS = st.builds("{}{}{}".format, st.sampled_from(("", "7,", "4,x")),
                            st.sampled_from(("1", "9", "0")).flatmap(
                                lambda digit: st.sampled_from(
                                    (639, 640, 641, 4300, 4301)).map(digit.__mul__)),
                            st.sampled_from(("", ",3", ",")))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789,,, +-x\u0663", max_size=12) | LONG_GENE_TEXTS)
@example("1" * 700)
@example("7," + "1" * 4301)
def test_the_two_chromosome_readers_agree(text):
    """deserialize reads exactly the texts check_text passes, fails with the
    same message on the others, and gives back the text it read."""
    try:
        chromosome = Chromosome.deserialize(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as checked:
            Chromosome.check_text(text)
        assert str(checked.value) == str(exc)
    else:
        Chromosome.check_text(text)
        assert chromosome.serialize() == text


def test_bounds_and_limits_validate():
    with pytest.raises(ValueError):
        GeneBounds(low=5, high=4)
    with pytest.raises(ValueError):
        LengthLimits(min=0, max=10)


def test_gene_bounds_stop_where_a_draw_can_reach():
    """Genes are drawn below high + 1, which must fit in an int64."""
    top = GeneBounds(low=2**63 - 1, high=2**63 - 1)
    assert random_chromosome(np.random.default_rng(0), top).genes[0] == 2**63 - 1
    with pytest.raises(ValueError, match=r"^gene bound high must be <= 2\*\*63 - 1, "
                                         r"not 9223372036854775808$"):
        GeneBounds(low=0, high=2**63)


# ===== random_chromosome =====

def test_random_chromosomes_respect_bounds_and_lengths():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = random_chromosome(rng)
        assert 15 <= len(c) <= 100
        assert all(0 <= g <= 179 for g in c.genes)


def test_random_chromosome_deterministic():
    a = random_chromosome(np.random.default_rng(123))
    b = random_chromosome(np.random.default_rng(123))
    assert a == b
    c = random_chromosome(np.random.default_rng(124))
    assert a != c


# ===== mapping =====

@pytest.mark.parametrize("gene,k,expected", [
    (5, 2, 1),
    (0, 2, 0),
    (4, 2, 0),
    (7, 3, 1),
    (9, 4, 1),
    (10, 5, 0),
    (179, 10, 9),
    (179, 2, 1),
])
def test_mapping_picks_option_gene_mod_k(gene, k, expected):
    result = map_chromosome(Chromosome((gene,)), options_grammar(k))
    assert result.mapped
    assert result.tokens == (f"o{expected}",)
    assert result.genes_consumed == 1


def test_single_option_rules_consume_no_genes():
    grammar = parse_grammar('<a> ::= "x" <b>\n<b> ::= "y"')
    result = map_chromosome(Chromosome((7, 7, 7)), grammar)
    assert result.mapped
    assert result.tokens == ("x", "y")
    assert result.genes_consumed == 0
    assert result.wraps_used == 0


def test_all_zero_chromosome_takes_first_options(grammar):
    """Hand derivation with every choice = option 0: the operator stage
    stops immediately, the mandatory execute step picks the percentage
    selection at its first value, the mutant stage stops. Four rules with
    multiple options are consulted along the way."""
    result = map_chromosome(Chromosome((0,) * 15), grammar)
    assert result.mapped
    assert result.tokens == ("Execute Operators", "Random", "10%")
    assert result.genes_consumed == 4
    assert result.wraps_used == 0


def test_wrapping_counts_passes_over_the_genes():
    # 20 two-option choice points read by a 15-gene chromosome: the 16th
    # read re-enters the front, one wrap.
    grammar = parse_grammar(
        "<s> ::= " + " ".join("<c>" for _ in range(20)) + '\n<c> ::= "a" | "b"'
    )
    result = map_chromosome(Chromosome((0,) * 15), grammar)
    assert result.mapped
    assert result.genes_consumed == 20
    assert result.wraps_used == 1


def chain(m):
    """m two-option choice points in a row."""
    return parse_grammar(
        "<s> ::= " + " ".join("<c>" for _ in range(m)) + '\n<c> ::= "a" | "b"'
    )


def test_wrap_budget_boundary():
    # A length-15 chromosome under the default wrap limit 10 affords
    # (10 + 1) * 15 = 165 gene reads: 165 choice points map, 166 fail.
    fits = map_chromosome(Chromosome((1,) * 15), chain(165))
    assert fits.mapped
    assert fits.genes_consumed == 165
    assert fits.wraps_used == 10

    over = map_chromosome(Chromosome((1,) * 15), chain(166))
    assert over.status is MappingStatus.FAILED
    assert over.tokens is None
    assert over.wraps_used == 11


ORACLE_GRAMMARS = {
    "default": default_grammar(),
    # An empty terminal inside an alternative, and one standing alone.
    "empty terminal": parse_grammar(
        '<s> ::= "x" "" <t> | "" | <t> "" "y"\n'
        '<t> ::= "a" "" | "b" <s> ""'),
    "single-alternative chain": parse_grammar(
        '<a> ::= "p" <b>\n<b> ::= <c> "q"\n<c> ::= "r" | <d>\n<d> ::= "s"'),
    "chain(165)": chain(165),
    "chain(166)": chain(166),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAMMARS))
@settings(max_examples=150, deadline=None)
@given(genes=st.lists(st.integers(0, 179), min_size=1, max_size=100),
       max_wraps=st.integers(0, 10))
@example(genes=[1] * 15, max_wraps=10)  # the wrap limit of chain(165), chain(166)
def test_table_mapping_equals_the_tree_walk(name, genes, max_wraps):
    grammar = ORACLE_GRAMMARS[name]
    c = Chromosome(tuple(genes))
    assert map_chromosome(c, grammar, max_wraps) == oracle_map(c, grammar, max_wraps)


def test_table_mapping_equals_the_tree_walk_on_random_chromosomes(grammar):
    rng = np.random.default_rng(21)
    for _ in range(2000):
        c = random_chromosome(rng)
        max_wraps = int(rng.integers(0, 11))
        assert map_chromosome(c, grammar, max_wraps) == oracle_map(c, grammar, max_wraps)


def test_mapping_is_deterministic(grammar):
    c = Chromosome(tuple(range(15, 45)))
    assert map_chromosome(c, grammar) == map_chromosome(c, grammar)


# ===== crossover =====

def test_crossover_cut_arithmetic():
    parent_a = Chromosome(tuple(range(20)))
    parent_b = Chromosome(tuple(range(100, 130)))
    child_a, child_b = crossover(parent_a, parent_b, StubRng([10, 10]))
    assert len(child_a) == 30
    assert len(child_b) == 20
    assert child_a.genes == parent_a.genes[:10] + parent_b.genes[10:]
    assert child_b.genes == parent_b.genes[:10] + parent_a.genes[10:]


def test_crossover_identical_parents_same_cut():
    parent = Chromosome(tuple(range(20)))
    child_a, child_b = crossover(parent, parent, StubRng([7, 7]))
    assert child_a == parent
    assert child_b == parent


def test_crossover_rejects_tiny_parents():
    with pytest.raises(ValueError):
        crossover(Chromosome((1,)), Chromosome((1, 2)), np.random.default_rng(0))


def test_crossover_children_stay_within_limits():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = random_chromosome(rng)
        b = random_chromosome(rng)
        for child in crossover(a, b, rng):
            assert 15 <= len(child) <= 100
            assert all(0 <= g <= 179 for g in child.genes)


def test_crossover_pads_short_children_to_minimum():
    a = Chromosome(tuple(range(15)))
    b = Chromosome(tuple(range(15)))
    rng = np.random.default_rng(3)
    for _ in range(50):
        for child in crossover(a, b, rng):
            assert len(child) >= 15


# ===== mutate =====

def test_mutate_probability_zero_is_identity():
    c = Chromosome(tuple(range(15, 55)))
    assert mutate(c, np.random.default_rng(0), probability=0.0) == c


def test_mutate_probability_one_resamples_every_gene():
    c = Chromosome((200,) * 40)  # out-of-bound marker values
    mutated = mutate(c, np.random.default_rng(0), probability=1.0)
    assert all(0 <= g <= 179 for g in mutated.genes)
    assert all(g != 200 for g in mutated.genes)


def test_mutate_changed_fraction_tracks_probability():
    # Resampling may redraw the same value (1/180 of the time), so the
    # observed change rate sits just under p; 0.01 +/- 0.005 over 1e5
    # genes is a > 6 sigma allowance either way.
    rng = np.random.default_rng(7)
    genes = 0
    changed = 0
    c = Chromosome(tuple(int(g) for g in rng.integers(0, 180, size=1000)))
    for _ in range(100):
        mutated = mutate(c, rng, probability=0.01)
        genes += len(c)
        changed += sum(1 for a, b in zip(c.genes, mutated.genes) if a != b)
    assert 0.005 <= changed / genes <= 0.015


def test_mutate_is_deterministic():
    c = Chromosome(tuple(range(30)))
    a = mutate(c, np.random.default_rng(5), probability=0.5)
    b = mutate(c, np.random.default_rng(5), probability=0.5)
    assert a == b


# ===== prune =====

def test_prune_truncates_to_consumed_prefix(grammar):
    # All-zero chromosome consumes 4 genes; pruning keeps that prefix and
    # pads back to the minimum length with genes the mapping never reads.
    c = Chromosome((0,) * 40)
    pruned = prune(c, grammar, np.random.default_rng(0))
    assert len(pruned) == 15
    assert pruned.genes[:4] == (0, 0, 0, 0)
    assert map_chromosome(pruned, grammar).tokens == \
        map_chromosome(c, grammar).tokens


def test_prune_leaves_fully_consumed_chromosomes_alone():
    grammar = parse_grammar(
        "<s> ::= " + " ".join("<c>" for _ in range(15)) + '\n<c> ::= "a" | "b"'
    )
    c = Chromosome((1,) * 15)
    assert prune(c, grammar, np.random.default_rng(0)) == c


def test_prune_preserves_phenotype_on_random_chromosomes(grammar):
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        c = random_chromosome(rng)
        before = map_chromosome(c, grammar)
        pruned = prune(c, grammar, rng)
        after = map_chromosome(pruned, grammar)
        if before.mapped:
            assert after.mapped
            assert after.tokens == before.tokens
            checked += 1
        else:
            assert pruned == c
    assert checked > 200  # most random chromosomes map


# ===== duplicate =====

def test_duplicate_full_length_unchanged():
    c = Chromosome(tuple(range(100)))
    assert duplicate(c, np.random.default_rng(0)) == c


def test_duplicate_appends_verbatim_segment():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = random_chromosome(rng)
        grown = duplicate(c, rng)
        assert grown.genes[:len(c)] == c.genes
        appended = grown.genes[len(c):]
        if appended:
            assert any(
                c.genes[i:i + len(appended)] == appended
                for i in range(len(c) - len(appended) + 1)
            )
        assert len(grown) <= 100


def test_duplicate_preserves_phenotype_without_wrapping(grammar):
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = random_chromosome(rng)
        before = map_chromosome(c, grammar)
        if not before.mapped or before.wraps_used > 0:
            continue
        grown = duplicate(c, rng)
        after = map_chromosome(grown, grammar)
        assert after.mapped
        assert after.tokens == before.tokens


# ===== cross-cutting determinism =====

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_variation_is_pure_in_seed(grammar, seed):
    c = Chromosome(tuple(range(20)))
    d = Chromosome(tuple(range(50, 80)))

    def pipeline(s):
        rng = np.random.default_rng(s)
        child, _ = crossover(c, d, rng)
        child = mutate(child, rng, probability=0.05)
        child = prune(child, grammar, rng)
        return duplicate(child, rng)

    assert pipeline(seed) == pipeline(seed)
