"""Computable permutations of the naturals with decidable cycle structure.

Expression algebras for equivalence relations and permutations, normal-form
machinery, conjugator synthesis, halting-based hardness gadgets, and decider
propagation through finitary products.  The names below are the ones the
demos, the README and the benchmark use; everything else is imported from
its module.
"""

from .core import (
    Exhausted,
    Found,
    Fuel,
    FuelExhausted,
    PreconditionViolation,
    pair,
    unpair,
)
from .equivalence import (
    BlockCache,
    CycleEqOf,
    EqExpr,
    FibersOf,
    Full,
    HaltingLabel,
    ImageEq,
    ModFun,
    Modulo,
    OpaqueEq,
    PiXY,
    Singletons,
    TableThenIdentity,
    block_decider,
    block_index,
    enumerate_block,
    eq_decide,
    is_isomorphism_on_window,
    least_representative,
    nth_block_decider,
)
from .permutation import (
    Compose,
    ConjugatorSamePartition,
    DeltaSucc,
    FinitaryProduct,
    FromRho,
    Identity,
    Inverse,
    NormalFromSet,
    OrbitCache,
    PermExpr,
    PiecewiseResidue,
    Rule,
    SeminormalFromRho,
    Transposition,
    TranspositionTimes,
    eta_decode,
    eta_encode,
    even_zigzag,
    orbit_window,
    perm_eval,
    perm_eval_inv,
    perm_power,
    window_bijection_check,
)
from .cycles import DECIDER, CycleWitness
from .normalform import (
    RhoCardConst,
    RhoConst,
    SeminormalToNormal,
    decider_from_normal,
    normal_min,
    normality_report,
    normalize,
    perm_from_rho,
    seminormal_from_rho,
    witness_to_eq,
)
from .conjugacy import conjugator_same_partition
from .gadgets import (
    ConjReductionPerm,
    InterredCFPerm,
    OddLengthGadget,
    cf_hard_perm,
    halting_equivalence,
)
from .products import finitary_product
from . import machine
