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

from .dist import (
    Assignment,
    JointDistribution,
    UnnormalizedWeight,
    Variable,
    condition,
    dump_distribution,
    load_distribution,
    marginalize,
    power,
    prob_of,
    product,
    scale,
)
from .errors import (
    BatchTooLarge,
    CounterexampleMismatch,
    DiscinfoError,
    InvalidIndex,
    MalformedInput,
    MissingQDistribution,
    NonPositiveProbability,
    ParseError,
    SupportMismatch,
    UnknownVariable,
    ZeroEvidence,
    ZeroProbabilityEvent,
)
from .quantities import (
    LogBase,
    Term,
    cross_entropy,
    entropy,
    expected_marginal_ic,
    information_content,
    kl_divergence,
    mutual_info,
    triple_mi,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BatchTooLarge",
    "BayesModel",
    "CounterexampleMismatch",
    "CsdDecomposition",
    "Dataset",
    "DiagramTable",
    "DiscinfoError",
    "ElboVAEResult",
    "ElboVIResult",
    "Expectation",
    "IdentitySuite",
    "InvalidIndex",
    "MalformedInput",
    "JointDistribution",
    "LatentVarModel",
    "LogBase",
    "MissingQDistribution",
    "NonPositiveProbability",
    "ParseError",
    "Posterior",
    "SearchReport",
    "SimConfig",
    "SimResult",
    "StirlingReport",
    "SuiteEntry",
    "SupportMismatch",
    "Term",
    "UnknownVariable",
    "UnnormalizedWeight",
    "Variable",
    "WitnessReport",
    "ZeroEvidence",
    "ZeroProbabilityEvent",
    "bald",
    "batch_score",
    "chaining_distribution",
    "check_suite",
    "condition",
    "cross_entropy",
    "csd",
    "csd_decomposition",
    "default_suite",
    "diagram",
    "dump_distribution",
    "elbo_vae",
    "elbo_vi",
    "entropy",
    "evaluate",
    "expected_marginal_ic",
    "format_expression",
    "information_content",
    "joint_label_hypothesis",
    "kl_divergence",
    "load_distribution",
    "load_model",
    "log_binomial_exact",
    "log_binomial_sweep",
    "log_evidence",
    "marginalize",
    "mutual_info",
    "parse",
    "parse_suite_file",
    "posterior",
    "power",
    "predictive",
    "prob_of",
    "product",
    "run_sim",
    "scale",
    "stirling_bound",
    "surprise",
    "three_cell_distribution",
    "threshold_task",
    "triple_mi",
    "update",
    "verify_reference_witnesses",
]

_LAZY = {
    "expr": ("DiagramTable", "diagram", "evaluate", "format_expression", "parse"),
    "identities": ("Expectation", "IdentitySuite", "SearchReport", "SuiteEntry", "WitnessReport",
                   "chaining_distribution", "check_suite", "default_suite", "parse_suite_file",
                   "three_cell_distribution", "verify_reference_witnesses"),
    "bayes": ("BayesModel", "CsdDecomposition", "Dataset", "ElboVAEResult", "ElboVIResult",
              "LatentVarModel", "Posterior", "bald", "batch_score", "csd", "csd_decomposition",
              "elbo_vae", "elbo_vi", "joint_label_hypothesis", "load_model", "log_evidence",
              "posterior", "predictive", "surprise", "update"),
    "simulate": ("SimConfig", "SimResult", "run_sim", "threshold_task"),
    "stirling": ("StirlingReport", "log_binomial_exact", "log_binomial_sweep", "stirling_bound"),
}


def __getattr__(name):
    """Load the module that exports ``name`` and bind all its exported names."""
    for module, names in _LAZY.items():
        if name in names:
            mod = importlib.import_module(f".{module}", __name__)
            globals().update({n: getattr(mod, n) for n in names})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
