import importlib
import inspect

import oscontrol

REMOVED = (
    "positivity_condition", "positive_triple", "non_recurrence_witness", "bracket_hamiltonians",
    "conditioning_bound", "TripleParams", "DEFAULT_RESIDUAL_TOL",
    "IDENTITY_NAMES", "is_symplectic",
)
MODULES = ("chain", "closure", "hamiltonians", "recurrence", "symplectic", "williamson")


def test_every_exported_name_resolves():
    assert len(set(oscontrol.__all__)) == len(oscontrol.__all__)
    for name in oscontrol.__all__:
        assert getattr(oscontrol, name) is not None, name


def test_removed_names_are_not_exported():
    # the chain's positivity and triple are decided by controllability_report
    # alone; the bracket formula lives in the closure; K is the recurrence
    # result's conditioning; the triple is fixed, so it has no weights to pass;
    # the Williamson residual bound is fixed, so it has no default either;
    # the identity table is the one list of its names, and a symplecticity
    # check compares audit_symplecticity with its own bound
    modules = [oscontrol] + [importlib.import_module(f"oscontrol.{m}") for m in MODULES]
    for name in REMOVED:
        assert name not in oscontrol.__all__
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)


def test_removed_attributes_and_parameters():
    # nothing read QuadraticHamiltonian.dim, ChainInduction.passive or
    # ControllabilityReport.model; the identity mutations of the tests go
    # through chain._identity_table, and the suite builds its own 3-site chain
    assert list(inspect.signature(oscontrol.verify_bracket_identities).parameters) == ["spec"]
    assert "model" not in oscontrol.ControllabilityReport.__dataclass_fields__
    report = oscontrol.controllability_report(oscontrol.ChainSpec(n=3, g1=0.2, g2=0.2))
    assert not hasattr(report, "model")
    assert not hasattr(oscontrol.QuadraticHamiltonian, "dim")
    assert not hasattr(oscontrol.QuadraticHamiltonian(1, [[1.0, 0.0], [0.0, 1.0]]), "dim")
    assert not hasattr(oscontrol.ChainInduction, "passive")
