"""Finite-dimensional dilation laboratory for completely positive multipliers.

Entrywise (Schur) multipliers, Fourier multipliers on finite groups, and
contraction semigroups are each dilated into a fermionic ambient algebra
where the map becomes a compression of a *-morphism conjugation.  Every
construction ships with verifiers that return worst-case residuals.
"""

from .chain import (ChainSpace, SchafferDilation, build_beta, build_chain,
                    build_schaffer, embed_J, expectations, halmos_block,
                    verify_embedding, verify_gamma_factorization,
                    verify_markov_property, verify_ppnp, verify_rota,
                    verify_rota_secondquant)
from .condexp import (ConditionalExpectation, SubalgebraBasis, conditional_expectation,
                      verify_expectation, word_closure)
from .config import dim_cap
from .dilation import (DilationBundle, build_dilation, convex_combination_dilation,
                       star_swap_check, verify_even_closure, verify_factorization,
                       verify_morphism_markov, verify_symmetry)
from .errors import (DilationLabError, NotExpectationError, NotPsdError,
                     PreconditionError, ShapeError, SizeError)
from .fock import (FermionRep, build_fermion_rep, exterior_map, interleave_double,
                   second_quantize, wick_inverse)
from .fourier import (CrossedBundle, FiniteGroup, FourierSymbol, build_crossed_dilation,
                      build_group_algebra, certify_posdef, cyclic_group,
                      dihedral_group, gram_matrix, multiplier_apply,
                      random_posdef_symbol, schur_symbol_matrix, symmetric_group,
                      verify_covariance, verify_fourier_identity)
from .fock import verify_q_relation
from .matcore import dagger, frobenius, max_abs, tensor_product, vec
from .schur import (GramSpace, SchurSymbol, apply_multiplier, build_gram_space,
                    certify_symbol, compose_symbols, multiplier_map)
from .states import (DiagonalState, MarkovMap, choi_matrix, gns_inner,
                     markov_residuals, modular_conjugate, star_adjoint)

__version__ = "0.1.0"

__all__ = [
    "ChainSpace", "ConditionalExpectation", "CrossedBundle", "DiagonalState", "DilationBundle", "DilationLabError",
    "FermionRep", "FiniteGroup", "FourierSymbol", "GramSpace", "MarkovMap",
    "NotExpectationError", "NotPsdError", "PreconditionError", "SchafferDilation",
    "SchurSymbol", "ShapeError", "SizeError", "SubalgebraBasis",
    "apply_multiplier", "build_beta", "build_chain", "build_crossed_dilation",
    "build_dilation", "build_fermion_rep", "build_gram_space", "build_group_algebra",
    "build_schaffer", "certify_posdef", "certify_symbol",
    "choi_matrix", "compose_symbols", "conditional_expectation",
    "convex_combination_dilation", "cyclic_group", "dagger", "dihedral_group",
    "dim_cap", "embed_J", "expectations", "exterior_map", "frobenius", "gns_inner",
    "gram_matrix", "halmos_block", "interleave_double", "markov_residuals",
    "max_abs", "modular_conjugate", "multiplier_apply", "multiplier_map",
    "random_posdef_symbol", "schur_symbol_matrix", "second_quantize",
    "star_adjoint", "star_swap_check", "symmetric_group", "tensor_product", "vec",
    "verify_covariance", "verify_embedding", "verify_even_closure",
    "verify_expectation", "verify_factorization", "verify_fourier_identity",
    "verify_gamma_factorization", "verify_markov_property",
    "verify_morphism_markov", "verify_ppnp", "verify_q_relation", "verify_rota",
    "verify_rota_secondquant", "verify_symmetry", "wick_inverse", "word_closure",
]
