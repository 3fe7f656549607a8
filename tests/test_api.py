"""The package API: the union of the modules' ``__all__`` lists."""

import importlib
import inspect
import pkgutil
import re

import pytest

import ukklattice
from ukklattice import cli

# the package exports at the commit that listed them by hand, less
# ``pos_neg_max`` (removed: ``PosNegMaxNorm`` computes the same value),
# ``LocalSearchConfig`` (removed: its knobs are constants, its seed a parameter)
# and three names only tests called: ``bell_number``, ``family_power_ratio``
# (a wrapper over ``estimates._ratio``) and ``check_coordinatewise_convergence``
# (``run_ukk_trial`` reads its settle rule, ``ukk._tracks_settle``, directly)
HAND_LISTED_EXPORTS = {
    "BlockNorm", "ConfigError", "DimensionMismatch", "EXACT_THRESHOLD", "EquivalenceAudit",
    "EstimateReport", "InfChainCheck", "LatticeVector", "LqNorm",
    "NormAuditReport", "NormOracle", "PosNegMaxNorm", "RenormBatch", "RenormResult", "Separation",
    "SuperadditivityCheck", "SupportPartition", "SupportTooLarge", "UkkCampaign", "UkkTrial",
    "WeightedLqNorm", "__version__", "absolute", "audit_equivalence", "audit_norm_axioms",
    "check_inf_chain", "check_superadditivity",
    "check_truncation_vanishing", "derived_exponent", "disjoint_residuals",
    "estimate_lower_p_constant", "estimate_two_disjoint_constant",
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


# parameter names of every function and class in ``__all__``, so that adding or
# removing an option shows as an edit here; None marks an exception class that
# keeps the builtin constructor, which has no Python signature.  The check
# tolerances (``rel_tol``/``abs_tol`` of ``check_inf_chain``,
# ``check_superadditivity``, ``verify_lower_r_estimate``, ``rel_tol`` of
# ``audit_equivalence``) and ``WeightedLqNorm``'s ``dim`` were removed: no
# caller set them to anything but the default.  So were the trial and audit
# tolerances (``tol`` of ``audit_norm_axioms``, ``generate_bump_sequence``,
# ``run_bump_campaign``, ``run_ukk_trial``) and the scalar exact threshold
# (``threshold`` of ``renorm``, ``renorm_exact``): no caller set them either,
# and a record from a campaign at another ``tol`` did not replay to itself.
# ``check_truncation_vanishing``'s ``tol`` went the same way: it reads ``ukk._TOL``.
# ``NormAuditReport``'s verdict ``passed`` is a field, as in the other reports
SIGNATURES = {
    "BlockNorm": ("blocks", "inner", "outer"),
    "ConfigError": ("path", "message"),
    "DimensionMismatch": None,
    "EquivalenceAudit": ("samples", "seed", "C", "p", "max_support", "lower_violations", "upper_violations",
                         "worst_lower_excess", "worst_upper_excess", "passed"),
    "EstimateReport": ("norm", "seed", "c_hat", "c_witness", "hypothesis_satisfied", "p_derived", "kr_table",
                       "lower_p_constant", "lower_p_witness", "budget_used"),
    "InfChainCheck": ("passed", "dyadic_ok", "powerlaw_ok", "inf_norm", "total_norm", "dyadic_bound",
                      "powerlaw_bound", "m", "k"),
    "LatticeVector": ("coords",),
    "LqNorm": ("q", "dim"),
    "NormAuditReport": ("kind", "samples", "seed", "tol", "monotone_constant", "zero_value",
                        "positivity_violations", "homogeneity_violation", "triangle_violation",
                        "monotonicity_violation", "passed"),
    "NormOracle": (),
    "PosNegMaxNorm": ("base",),
    "RenormBatch": ("values", "power_sums", "methods", "p", "norm", "_sources"),
    "RenormResult": ("value", "power_sum", "witness", "method", "p", "norm"),
    "Separation": ("value", "advisory"),
    "SuperadditivityCheck": ("passed", "slack", "value_x", "value_y", "value_sum", "p"),
    "SupportPartition": ("blocks",),
    "SupportTooLarge": None,
    "UkkCampaign": ("norm", "p", "mode", "horizon", "seed", "trials", "total", "valid", "passed", "failed",
                    "invalid", "advisory", "min_margin"),
    "UkkTrial": ("valid", "advisory", "seed", "p", "horizon", "norm", "sequence", "declared_limit", "reason",
                 "passed", "epsilon", "delta", "limit_renorm", "min_dist_to_limit", "liminf_ok"),
    "WeightedLqNorm": ("q", "weights"),
    "absolute": ("x",),
    "audit_equivalence": ("N", "p", "C", "samples", "seed", "max_support"),
    "audit_norm_axioms": ("N", "samples", "seed"),
    "check_inf_chain": ("N", "c", "family"),
    "check_superadditivity": ("N", "p", "x", "y"),
    "check_truncation_vanishing": ("u", "sequence", "declared_limit", "N"),
    "derived_exponent": ("c",),
    "disjoint_residuals": ("x", "y"),
    "estimate_lower_p_constant": ("N", "p", "budget", "seed"),
    "estimate_two_disjoint_constant": ("N", "budget", "seed"),
    "generate_bump_sequence": ("N", "p", "core", "bump_height", "horizon"),
    "is_disjoint": ("x", "y"),
    "iter_set_partitions": ("items",),
    "join": ("x", "y"),
    "load_config": ("path",),
    "lower_r_constant": ("c", "p", "r"),
    "measure_separation": ("sequence", "N", "p"),
    "meet": ("x", "y"),
    "neg_part": ("x",),
    "parse_norm_spec": ("spec", "path"),
    "partition_power_sum": ("N", "p", "x", "blocks"),
    "pos_part": ("x",),
    "random_coords": ("rng", "n"),
    "random_disjoint_family": ("rng", "dim", "count"),
    "random_disjoint_pair": ("rng", "dim"),
    "random_vector": ("rng", "dim", "support_size"),
    "renorm": ("N", "p", "x", "seed"),
    "renorm_batch": ("N", "p", "X", "threshold", "seed"),
    "renorm_exact": ("N", "p", "x"),
    "renorm_heuristic": ("N", "p", "x", "seed"),
    "restrict": ("x", "block"),
    "run_bump_campaign": ("N", "p", "trials", "seed", "mode", "horizon"),
    "run_estimate_pipeline": ("N", "budget", "seed", "rs"),
    "run_ukk_trial": ("N", "p", "sequence", "declared_limit", "seed"),
    "truncate": ("u", "x"),
    "ukk_modulus": ("epsilon", "p"),
    "verify_lower_r_estimate": ("N", "r", "K", "trials", "seed"),
}


def test_signatures_match_inventory():
    assert {name for name in ukklattice.__all__ if callable(getattr(ukklattice, name))} == set(SIGNATURES)
    for name, params in SIGNATURES.items():
        obj = getattr(ukklattice, name)
        if params is None:
            with pytest.raises(ValueError):
                inspect.signature(obj)
        else:
            assert tuple(inspect.signature(obj).parameters) == params, name


# the public methods (their parameter names, less ``self``) and properties of
# every exported class, as defined in the package or inherited from a package
# base, so that adding or removing a method or a method option shows as an edit
# here.  ``SupportPartition``'s classmethod constructor, its atom set and its
# partition test were removed: the constructor itself sorts and gates any blocks.
# ``NormAuditReport.passed`` is a field, no longer a property.  Every oracle has
# ``values_on``, the support form of ``values``
PROPERTY = "property"
_ORACLE = {"values": ("X",), "values_on": ("V", "atoms"), "describe": (), "monotone_constant": PROPERTY}
METHODS = {
    "BlockNorm": _ORACLE,
    "ConfigError": {},
    "DimensionMismatch": {},
    "EquivalenceAudit": {"to_dict": ()},
    "EstimateReport": {"to_dict": ()},
    "InfChainCheck": {},
    "LatticeVector": {"zeros": ("dim",), "unit": ("dim", "atom", "height"), "coords": PROPERTY,
                      "dim": PROPERTY, "support": (), "to_list": ()},
    "LqNorm": _ORACLE,
    "NormAuditReport": {"to_dict": ()},
    "NormOracle": _ORACLE,
    "PosNegMaxNorm": _ORACLE,
    "RenormBatch": {"witness": ("i",), "result": ("i",)},
    "RenormResult": {"to_dict": ()},
    "Separation": {},
    "SuperadditivityCheck": {},
    "SupportPartition": {"to_lists": ()},
    "SupportTooLarge": {},
    "UkkCampaign": {"to_dict": ("include_trials",)},
    "UkkTrial": {"to_dict": ()},
    "WeightedLqNorm": _ORACLE,
}


def _public_members(cls) -> dict:
    members = {}
    for base in cls.__mro__:
        if base.__module__.startswith("ukklattice."):
            for name, attr in vars(base).items():
                if name.startswith("_") or name in members:
                    continue
                if isinstance(attr, property):
                    members[name] = PROPERTY
                elif callable(attr) or isinstance(attr, (classmethod, staticmethod)):
                    params = inspect.signature(getattr(cls, name)).parameters
                    members[name] = tuple(p for p in params if p != "self")
    return members


def test_methods_match_inventory():
    classes = {name for name in ukklattice.__all__ if inspect.isclass(getattr(ukklattice, name))}
    assert classes == set(METHODS)
    for name, members in METHODS.items():
        assert _public_members(getattr(ukklattice, name)) == members, name


# the fields of each CLI config section, so that adding or removing a config
# option shows as an edit here too; ``audit.tol`` and ``ukk.tol`` were removed
# with the library tolerances they set
CLI_SECTIONS = {
    "audit": ("samples",),
    "estimate": ("budget", "rs", "verify_trials"),
    "renorm": ("p", "mode", "vectors", "random"),
    "ukk": ("p", "trials", "horizon", "mode"),
}


def test_cli_sections_match_inventory():
    assert cli._SECTIONS == CLI_SECTIONS


# a library-owned section is handed to its call as keyword arguments, so its
# fields are the call's parameters less the oracle and the seed, which the CLI
# supplies; ``estimate.verify_trials`` is the CLI's own.  A parameter added on
# one side fails here until the other side follows
LIBRARY_SECTIONS = {
    "audit": (ukklattice.audit_norm_axioms, ()),
    "estimate": (ukklattice.run_estimate_pipeline, ("verify_trials",)),
    "ukk": (ukklattice.run_bump_campaign, ()),
}


@pytest.mark.parametrize("section", LIBRARY_SECTIONS)
def test_library_sections_match_their_calls(section):
    call, cli_only = LIBRARY_SECTIONS[section]
    fields = set(cli._SECTIONS[section]) - set(cli_only)
    assert fields == set(inspect.signature(call).parameters) - {"N", "seed"}


# the option strings of each subcommand, read from its help, so that adding or
# removing a CLI flag shows as an edit here; renorm's config-free mode
# (``--space``, ``--p``, ``--vector``, ``--exact``, ``--heuristic``) was removed
CLI_FLAGS = {
    "space-check": ("-h", "--help", "--config", "--seed", "--out"),
    "estimate": ("-h", "--help", "--config", "--seed", "--out"),
    "renorm": ("-h", "--help", "--config", "--seed", "--out"),
    "ukk": ("-h", "--help", "--config", "--seed", "--out"),
}


@pytest.mark.parametrize("command", CLI_FLAGS)
def test_cli_flags_match_inventory(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.partition("\noptions:\n")[2]
    assert options
    flags = re.findall(r"(?<![\w-])--?[a-z][\w-]*", options)
    assert tuple(dict.fromkeys(flags)) == CLI_FLAGS[command]
