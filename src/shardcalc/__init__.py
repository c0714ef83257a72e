"""shardcalc: exact kernel for the adjoint braid arrangement.

Shard enumeration, layered-forest derivatives, Steinmann quotients, and
machine checks of the calculus' structure theorems at small ground sets.
"""

from ._backend import BACKEND
from .arrangement import Shard, enumerate_shards, shard_from_signs
from .audit import (
    CHAMBER_COUNTS,
    SAMPLE_SEED,
    full_audit,
    replay_counterexample,
    run_suite,
    zie_dimension,
)
from .calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    dual_forest_derivative,
    dual_rows,
    forest_derivative,
    random_functional,
)
from .cli import main
from .exactla import Rational, RationalMatrix, rat, rat_str
from .forests import (
    LayeredForest,
    antisymmetrize,
    compose,
    cut_forest,
    format_forest,
    parse_forest,
)
from .ground import GroundSet, Partition
from .steinmann import (
    factorize,
    is_semisimple,
    product,
    quotient_dim,
    quotient_space,
    steinmann_relations,
)
from .svg import render

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CHAMBER_COUNTS",
    "Functional",
    "GroundSet",
    "InvariantViolation",
    "LayeredForest",
    "Partition",
    "Rational",
    "RationalMatrix",
    "SAMPLE_SEED",
    "Shard",
    "ShardVector",
    "__version__",
    "antisymmetrize",
    "compose",
    "cut_forest",
    "dual_forest_derivative",
    "dual_rows",
    "enumerate_shards",
    "factorize",
    "forest_derivative",
    "format_forest",
    "full_audit",
    "is_semisimple",
    "main",
    "parse_forest",
    "product",
    "quotient_dim",
    "quotient_space",
    "random_functional",
    "rat",
    "rat_str",
    "render",
    "replay_counterexample",
    "run_suite",
    "shard_from_signs",
    "steinmann_relations",
    "zie_dimension",
]
