"""Computational toolkit for singular virtual braid monoids."""

from .words import (
    BraidWord, Budget, Distinct, Equivalent, Generator, IndexRangeError, Kind,
    ParseError, RelationInstance, TraceStep, Unknown, Verdict, compose_perms,
    concat, degree, equivalent, free_reduce, free_reduce_trace, identity_perm,
    inverse_word, invert_perm, invert_step, mirror, parse_word, print_word,
    relation_catalog, replay_trace, rho, sigma, singularity_count, tau, theta,
    virtual_word_of_perm,
)
from .gauss import (
    Arrow, ArrowKind, GaussWord, braid_of_gauss, canonical_form,
    canonical_form_trace, gauss_of_braid, omega_equivalent, pair_invariants,
    replay_omega_trace,
)
from .desing import (
    FormalSum, degree_spectrum, eta, eta_hat, eta_hat_expansion,
    scalar_preimage_check,
)
from .pure import (
    PureGenerator, PureWord, SemidirectPair, SingularFactorization, X, Y,
    decompose, embed_pure_generator, embed_pure_word, factor_singular,
    parse_pure_word, print_pure_word, reassemble_factorization,
    reassemble_pair, semidirect_multiply, sp_relation_instances,
    verify_sp_relations,
)
from .rep import burau
from .surface import (
    RibbonGraph, SurfaceSummary, boundary_components, euler_by_traversal,
    euler_characteristic, genus, ribbon_of_braid, surface_summary,
)
from .suites import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
