"""Integer genotypes and their mapping onto grammar derivations.

A chromosome is a variable-length array of integer genes. Mapping walks
the grammar depth-first, leftmost first; every rule with two or more
alternatives consumes one gene and picks alternative ``gene mod
n_alternatives``. Single-alternative rules consume nothing. When the
genes run out, reading wraps to the front, up to ``max_wraps`` times;
needing one more wrap fails the mapping. The walk runs over the grammar's
integer tables (``Grammar.tables``), compiled once per grammar, not over
its rule objects. A chromosome's text is its genes in ASCII decimal joined
by commas, a rule that ``Chromosome.check_text`` alone states.

Variation operators (crossover, mutate, prune, duplicate) are pure
functions of their inputs and the supplied generator, and always respect
the configured gene bounds and length limits.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grammar import Grammar
from .numerals import read_count, shown

GENE_LOW = 0
GENE_HIGH = 179
MIN_LENGTH = 15
MAX_LENGTH = 100
MAX_WRAPS = 10
# Genes are drawn by rng.integers(low, high + 1), whose bound must fit
# in an int64: high + 1 <= 2**63.
MAX_GENE = 2**63 - 1

# The chromosome text rule, for the whole text at once: ASCII digits and
# commas only and, with a comma put at each end, no comma followed by a
# comma (an empty gene) or a leading zero. A pattern per gene, or one for
# the whole rule, would hold memory for every gene while it matched.
_GENE_CHARACTERS = re.compile(r"[0-9,]*")
_BAD_GENE = re.compile(r",(?:,|0[0-9])")
_LONG_GENE = re.compile(r"(?<![0-9])[0-9]{641,}")


@dataclass(frozen=True)
class GeneBounds:
    low: int = GENE_LOW
    high: int = GENE_HIGH  # inclusive

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("gene bounds must satisfy 0 <= low <= high")
        if self.high > MAX_GENE:
            raise ValueError(f"gene bound high must be <= 2**63 - 1, not {self.high}")


@dataclass(frozen=True)
class LengthLimits:
    min: int = MIN_LENGTH
    max: int = MAX_LENGTH

    def __post_init__(self) -> None:
        if self.min < 1 or self.max < self.min:
            raise ValueError("length limits must satisfy 1 <= min <= max")


DEFAULT_BOUNDS = GeneBounds()
DEFAULT_LIMITS = LengthLimits()


@dataclass(frozen=True)
class Chromosome:
    """A non-empty tuple of genes, each an integer >= 0 stored as ``int``.

    The constructor checks every gene: a bool, a float, a string or a
    negative number is a ``ValueError``, never truncated or converted, so
    every chromosome serializes to text ``deserialize`` reads back. numpy
    integers are accepted and stored as ``int``. Variation builds its
    chromosomes from genes already known to be valid ints, through
    ``_of_ints``, which skips the check.
    """

    genes: tuple[int, ...]

    def __post_init__(self) -> None:
        genes = []
        for position, gene in enumerate(self.genes):
            if (type(gene) is not int  # numpy integers, or bad genes
                    and (isinstance(gene, bool) or not isinstance(gene, numbers.Integral))
                    or gene < 0):
                raise ValueError(f"gene {position} is {gene!r}, not an integer >= 0")
            genes.append(int(gene))
        if not genes:
            raise ValueError("chromosome must have at least one gene")
        object.__setattr__(self, "genes", tuple(genes))

    @classmethod
    def _of_ints(cls, genes: tuple[int, ...]) -> "Chromosome":
        """A chromosome of genes known to be ints >= 0 (one or more)."""
        chromosome = object.__new__(cls)
        object.__setattr__(chromosome, "genes", genes)
        return chromosome

    def __len__(self) -> int:
        return len(self.genes)

    def serialize(self) -> str:
        return ",".join(str(g) for g in self.genes)

    @classmethod
    def deserialize(cls, text: str) -> "Chromosome":
        """The chromosome whose serialize() text is exactly ``text``."""
        cls.check_text(text)
        return cls._of_ints(tuple(read_count(gene, "gene") for gene in text.split(",")))

    @staticmethod
    def check_text(text: str) -> None:
        """Raise ValueError unless ``text`` is serialize() text. No genes are
        built, but one past 640 digits, the lowest limit Python lets a
        process set for int(), is read, and may be past int()'s limit."""
        if _GENE_CHARACTERS.fullmatch(text) is None or _BAD_GENE.search(f",{text},"):
            raise ValueError(f"bad chromosome text {shown(text)}")
        for gene in _LONG_GENE.findall(text):
            read_count(gene, "gene")


class MappingStatus(Enum):
    MAPPED = "mapped"
    FAILED = "failed"


@dataclass(frozen=True)
class MappingResult:
    status: MappingStatus
    tokens: tuple[str, ...] | None
    genes_consumed: int
    wraps_used: int

    @property
    def mapped(self) -> bool:
        return self.status is MappingStatus.MAPPED


def random_chromosome(
    rng: np.random.Generator,
    bounds: GeneBounds = DEFAULT_BOUNDS,
    limits: LengthLimits = DEFAULT_LIMITS,
) -> Chromosome:
    length = int(rng.integers(limits.min, limits.max + 1))
    genes = rng.integers(bounds.low, bounds.high + 1, size=length)
    return Chromosome._of_ints(tuple(genes.tolist()))


def map_chromosome(
    chromosome: Chromosome,
    grammar: Grammar,
    max_wraps: int = MAX_WRAPS,
) -> MappingResult:
    """Map genes to the terminal token sequence of a derivation.

    genes_consumed counts gene reads including wrapped ones; wraps_used is
    how many times reading passed the end of the chromosome. On failure
    (the derivation would need wrap max_wraps + 1) tokens is None.
    """
    genes = chromosome.genes
    n = len(genes)
    budget = (max_wraps + 1) * n
    productions, terminals = grammar.tables
    stack = [0]
    tokens: list[str] = []
    reads = 0
    while stack:
        symbol = stack.pop()
        if symbol < 0:
            tokens.append(terminals[~symbol])
            continue
        choices = productions[symbol]
        if len(choices) == 1:
            stack += choices[0]
            continue
        if reads >= budget:
            return MappingResult(
                status=MappingStatus.FAILED,
                tokens=None,
                genes_consumed=reads,
                wraps_used=max_wraps + 1,
            )
        stack += choices[genes[reads % n] % len(choices)]
        reads += 1
    wraps = 0 if reads == 0 else (reads - 1) // n
    return MappingResult(
        status=MappingStatus.MAPPED,
        tokens=tuple(tokens),
        genes_consumed=reads,
        wraps_used=wraps,
    )


def crossover(
    parent_a: Chromosome,
    parent_b: Chromosome,
    rng: np.random.Generator,
    bounds: GeneBounds = DEFAULT_BOUNDS,
    limits: LengthLimits = DEFAULT_LIMITS,
) -> tuple[Chromosome, Chromosome]:
    """Single-point crossover with one independent cut per parent.

    Children are prefix_a + suffix_b and prefix_b + suffix_a, then clamped
    to the length limits: truncated at max, padded with fresh random genes
    at min. Cuts keep both sides of each parent non-empty, so parents need
    at least two genes.
    """
    if len(parent_a) < 2 or len(parent_b) < 2:
        raise ValueError("crossover parents must have at least 2 genes")
    cut_a = int(rng.integers(1, len(parent_a)))
    cut_b = int(rng.integers(1, len(parent_b)))
    child_a = parent_a.genes[:cut_a] + parent_b.genes[cut_b:]
    child_b = parent_b.genes[:cut_b] + parent_a.genes[cut_a:]
    return (_clamp(child_a, rng, bounds, limits),
            _clamp(child_b, rng, bounds, limits))


def _clamp(
    genes: tuple[int, ...],
    rng: np.random.Generator,
    bounds: GeneBounds,
    limits: LengthLimits,
) -> Chromosome:
    if len(genes) > limits.max:
        genes = genes[:limits.max]
    if len(genes) < limits.min:
        pad = rng.integers(bounds.low, bounds.high + 1, size=limits.min - len(genes))
        genes = genes + tuple(pad.tolist())
    return Chromosome._of_ints(genes)


def mutate(
    chromosome: Chromosome,
    rng: np.random.Generator,
    probability: float = 0.01,
    bounds: GeneBounds = DEFAULT_BOUNDS,
) -> Chromosome:
    """Random integer mutation: each gene independently resampled with
    the given probability (the new value may equal the old one)."""
    n = len(chromosome)
    mask = rng.random(n) < probability
    hits = int(np.count_nonzero(mask))
    if hits == 0:
        return chromosome
    replacements = rng.integers(bounds.low, bounds.high + 1, size=hits)
    genes = list(chromosome.genes)
    for position, value in zip(np.flatnonzero(mask).tolist(), replacements.tolist()):
        genes[position] = value
    return Chromosome._of_ints(tuple(genes))


def prune(
    chromosome: Chromosome,
    grammar: Grammar,
    rng: np.random.Generator,
    bounds: GeneBounds = DEFAULT_BOUNDS,
    limits: LengthLimits = DEFAULT_LIMITS,
    max_wraps: int = MAX_WRAPS,
) -> Chromosome:
    """Cut a chromosome down to the prefix its mapping actually reads.

    Only applies to chromosomes that map without wrapping; failed or
    wrapped mappings return the input unchanged. If the consumed prefix is
    shorter than the minimum length it is padded with fresh random genes,
    which the mapping never reads, so the phenotype is unchanged.
    """
    result = map_chromosome(chromosome, grammar, max_wraps)
    if not result.mapped or result.wraps_used > 0:
        return chromosome
    if result.genes_consumed >= len(chromosome):
        return chromosome
    prefix = chromosome.genes[:result.genes_consumed]
    return _clamp(prefix, rng, bounds, limits) if prefix else chromosome


def duplicate(
    chromosome: Chromosome,
    rng: np.random.Generator,
    limits: LengthLimits = DEFAULT_LIMITS,
) -> Chromosome:
    """Append a verbatim copy of a random contiguous segment at the end,
    truncating the copy so the result stays within the maximum length."""
    n = len(chromosome)
    room = limits.max - n
    if room <= 0:
        return chromosome
    start = int(rng.integers(0, n))
    seg_len = int(rng.integers(1, n - start + 1))
    segment = chromosome.genes[start:start + min(seg_len, room)]
    return Chromosome._of_ints(chromosome.genes + segment)
