"""Exact computation in finitely generated partially commutative groups.

Canonical minimal forms, parabolic double cosets, HNN-relative
factorisation and symbol maps, mechanical verification of embedding
theorems for one-relator quotients, and an exhaustive normal-form
census with asymptotic-density estimates over chorded cycle graphs.
"""

from .errors import PcgError
from .graphs import (
    CommutationGraph,
    build_graph,
    complement_components,
    cycle_with_chord,
    is_clique,
    is_independent,
    is_synchronised,
    link,
    load_graph,
    parse_graph,
    plain_cycle,
    star,
)
from .words import (
    CyclicDecomposition,
    NormalForm,
    Word,
    block_decomposition,
    conjugate_test,
    cyclic_reduce,
    equal,
    format_word,
    is_cyclically_minimal,
    minimal_form,
    parse_word,
    support,
)
from .cosets import (
    DoubleCosetRep,
    ParabolicContext,
    double_coset_rep,
    in_maln,
    parabolic,
    parabolic_member,
    strip_divisors,
)
from .hnn import (
    HnnWord,
    SigmaWord,
    UniquePositionSplit,
    hnn_factorize,
    is_cyclically_reduced_hnn,
    is_cyclically_t_thick,
    is_t_root,
    is_t_thick,
    sigma,
    t_length,
    unique_position_factorization,
)
from .freiheitssatz import (
    FreiReport,
    check_amalgam,
    check_theorem_main,
    magnus_verdict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["census"]


def __getattr__(name):
    """Import the census on first use: the other commands do not need it,
    nor fractions, csv and random, which it loads.  A from-import here
    would recurse, since `from . import census` asks this hook for the
    attribute first."""
    if name == "census":
        import importlib
        return importlib.import_module(".census", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
