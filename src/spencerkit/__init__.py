"""Verification toolkit for almost complex structures on coordinate boxes.

The package checks almost-holomorphicity of scalar functions, solves for
polynomial solutions of the tangency equations, estimates how many
independent solutions exist, builds and compares charts, and validates
pseudogroup families of local maps.  Scenario JSON files drive batches of
checks through the ``spencerkit`` command.
"""
from .charts import (CocycleResult, Factorization, SpencerChart,
                     TransitionMap, build_spencer_chart, cocycle_check,
                     factorize, transition_map)
from .crsolve import (AHSolutionSet, TypeEstimate, cr_equations_check,
                      cr_residual, estimate_spencer_type, independence_rank,
                      solve_ah_polynomials)
from .defaults import TOOLKIT_VERSION
from .errors import (ChartError, CheckFailure, CompositionError,
                     ConfigurationError, DegenerateStructureError,
                     DomainError, FitError, IndependenceError,
                     InversionError, NumericalError, OverlapError,
                     PolynomialParseError, ScenarioError, SpencerKitError)
from .jfield import (ACStructure, Box, SplitTypeResult, check_acs, eval_j,
                     integrability_report, nijenhuis, split_type,
                     standard_structure)
from .poly import (PolyMap, Polynomial, format_polynomial, monomials_upto,
                   parse_polynomial)
from .pseudogroup import (GlueTest, LocalMap, OverDiagram, PseudogroupFamily,
                          check_ah_map, check_over_diagram, compose, covers,
                          generate, identity_map, invert, restrict,
                          validate_axioms)
from .report import Report, make_report
from .scenario import (RunResult, Scenario, builtin_scenarios, emit_json,
                       emit_text, load_scenario, parse_scenario, run_scenario)

__version__ = TOOLKIT_VERSION

__all__ = [
    "ACStructure", "AHSolutionSet", "Box", "ChartError", "CheckFailure",
    "CocycleResult",
    "CompositionError", "ConfigurationError", "DegenerateStructureError",
    "DomainError", "Factorization", "FitError", "GlueTest",
    "IndependenceError", "InversionError", "LocalMap", "NumericalError",
    "OverDiagram", "OverlapError", "PolyMap", "Polynomial",
    "PolynomialParseError", "PseudogroupFamily", "Report",
    "RunResult", "Scenario", "ScenarioError", "SpencerChart",
    "SpencerKitError", "SplitTypeResult", "TOOLKIT_VERSION", "TransitionMap",
    "TypeEstimate", "build_spencer_chart", "builtin_scenarios", "check_acs",
    "check_ah_map", "check_over_diagram", "cocycle_check", "compose",
    "covers", "cr_equations_check", "cr_residual",
    "emit_json", "emit_text", "estimate_spencer_type", "eval_j", "factorize",
    "format_polynomial", "generate", "identity_map", "independence_rank",
    "integrability_report", "invert", "load_scenario", "make_report",
    "monomials_upto", "nijenhuis", "parse_polynomial", "parse_scenario",
    "restrict", "run_scenario",
    "solve_ah_polynomials", "split_type", "standard_structure",
    "transition_map", "validate_axioms",
]
