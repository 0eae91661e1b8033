"""Combinatorial specifications of permutation classes.

From a finite basis of excluded patterns (and the finitely many simple
permutations of the class, computed or supplied) build an unambiguous
system of combinatorial equations describing the class, then count it
exactly and sample it uniformly.
"""

from .perms import (
    DecompTree,
    Embedding,
    Perm,
    contains,
    decompose,
    embeddings,
    enumerate_avoiders,
    gen_substitute,
    indecomposability,
    is_simple,
    is_skew_decomposable,
    is_sum_decomposable,
    minimal_patterns,
    pattern_of,
    rebuild,
    substitute,
    tree_text,
)
from .simples import SimplesResult, TruncatedSimplesError, compute_simples
from .restrictions import (
    FLAVOR_ALL,
    FLAVOR_SKEW_INDEC,
    FLAVOR_SUM_INDEC,
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
    complement_restriction,
    complement_term,
    in_closure,
    in_restriction,
    in_term,
    intersect_restrictions,
    intersect_terms,
    rhs_multiplicity,
)
from .builder import (
    ClassInput,
    add_constraints,
    add_mandatory,
    ambiguous_system,
    class_input,
    closure_system,
    restriction_equation,
)
from .disambiguator import (
    IterationLimitError,
    disambiguate_equation,
    disambiguate_system,
)
from .engine import (
    CountTable,
    GfSystem,
    count_coefficients,
    emit_gf_equations,
    prune_unproductive,
    unproductive_nonterminals,
)
from .sampler import (
    DivergentSeriesError,
    EmptySizeClassError,
    RejectionBudgetError,
    SamplerState,
    evaluate_series,
    sample_boltzmann,
    sample_exact,
)
from .serial import (
    InvalidInputError,
    parse_system,
    read_perm_lines,
    serialize_system,
    system_json,
)

__version__ = "0.1.0"
