"""Exact information-theoretic quantities on finite discrete distributions.

The package computes entropies, cross-entropies, KL divergences, and mutual
information exactly -- including the mixed quantities between random
variables and observed (tied) outcomes such as the information gain and
the surprise -- plus a parser for an ASCII notation, an identity /
counterexample search suite, an entropy-form bound for binomial
coefficients, and exact-enumeration Bayesian models with BALD and
label-aware core-set acquisition at desk scale.

``import discinfo`` loads only ``dist``, ``errors`` and ``quantities``.  The
notation (``expr``), the identity search (``identities``), ``bayes``,
``simulate`` and ``stirling`` load on first use of one of their names
(PEP 562), and that first use binds all of the module's names.
"""

import importlib

__version__ = "0.1.0"

# The exported names of each module: one table yields the eager imports, the
# lazy ones and ``__all__``.
_EXPORTS = {
    "dist": ("JointDistribution", "UnnormalizedWeight", "Variable", "condition",
             "dump_distribution", "load_distribution"),
    "errors": ("BatchTooLarge", "CounterexampleMismatch", "DiscinfoError", "InvalidIndex",
               "MalformedInput", "MissingQDistribution", "NonPositiveProbability", "ParseError",
               "SupportMismatch", "UnknownVariable", "ZeroEvidence", "ZeroProbabilityEvent"),
    "quantities": ("LogBase", "Term", "entropy", "information_content", "mutual_info"),
    "expr": ("DiagramTable", "diagram", "evaluate", "format_expression", "parse"),
    "identities": ("Expectation", "IdentitySuite", "SearchReport", "SuiteEntry", "WitnessReport",
                   "chaining_distribution", "check_suite", "default_suite", "parse_suite_file",
                   "three_cell_distribution", "verify_reference_witnesses"),
    "bayes": ("BayesModel", "CsdDecomposition", "ElboVAEResult", "ElboVIResult",
              "LatentVarModel", "Posterior", "bald", "batch_score", "csd", "csd_decomposition",
              "elbo_vae", "elbo_vi", "joint_label_hypothesis", "load_model", "log_evidence",
              "posterior", "predictive", "surprise", "update"),
    "simulate": ("SimConfig", "SimResult", "run_sim", "threshold_task"),
    "stirling": ("StirlingReport", "log_binomial_exact", "log_binomial_sweep", "stirling_bound"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _bind(module: str) -> None:
    """Import ``module`` and bind all its exported names in the package."""
    mod = importlib.import_module(f".{module}", __name__)
    globals().update({name: getattr(mod, name) for name in _EXPORTS[module]})


for _module in ("dist", "errors", "quantities"):
    _bind(_module)


def __getattr__(name):
    """Load the module that exports ``name`` and bind all its exported names."""
    for module, names in _EXPORTS.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
