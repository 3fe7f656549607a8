"""The package API: the union of the modules' ``__all__`` lists."""

import importlib
import pkgutil

import ukklattice

# the package exports at the commit that listed them by hand, less
# ``pos_neg_max`` (removed: ``PosNegMaxNorm`` computes the same value)
HAND_LISTED_EXPORTS = {
    "BlockNorm", "ConfigError", "DimensionMismatch", "EXACT_THRESHOLD", "EquivalenceAudit",
    "EstimateReport", "InfChainCheck", "LatticeVector", "LocalSearchConfig", "LqNorm",
    "NormAuditReport", "NormOracle", "PosNegMaxNorm", "RenormBatch", "RenormResult", "Separation",
    "SuperadditivityCheck", "SupportPartition", "SupportTooLarge", "UkkCampaign", "UkkTrial",
    "WeightedLqNorm", "__version__", "absolute", "audit_equivalence", "audit_norm_axioms",
    "bell_number", "check_coordinatewise_convergence", "check_inf_chain", "check_superadditivity",
    "check_truncation_vanishing", "derived_exponent", "disjoint_residuals",
    "estimate_lower_p_constant", "estimate_two_disjoint_constant", "family_power_ratio",
    "generate_bump_sequence", "is_disjoint", "iter_set_partitions", "join", "load_config",
    "lower_r_constant", "measure_separation", "meet", "neg_part", "parse_norm_spec",
    "partition_power_sum", "pos_part", "random_disjoint_family", "random_disjoint_pair",
    "random_vector", "renorm", "renorm_batch", "renorm_exact", "renorm_heuristic", "restrict",
    "run_bump_campaign", "run_estimate_pipeline", "run_ukk_trial", "truncate", "ukk_modulus",
    "verify_lower_r_estimate",
}

# every library module; the CLI is an entry point, not part of the package namespace
MODULES = [
    importlib.import_module(f"ukklattice.{info.name}")
    for info in pkgutil.iter_modules(ukklattice.__path__)
    if info.name != "cli"
]


def test_module_all_is_exported():
    for module in MODULES:
        for name in module.__all__:
            assert name in ukklattice.__all__, f"{module.__name__}.{name}"
            assert getattr(ukklattice, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_hand_listed_exports_kept():
    exported = set(ukklattice.__all__)
    assert HAND_LISTED_EXPORTS <= exported
    assert len(exported) == len(ukklattice.__all__)
    for name in HAND_LISTED_EXPORTS - {"__version__"}:
        owners = [m for m in MODULES if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(ukklattice, name) is getattr(owners[0], name)


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from ukklattice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ukklattice.__all__)
