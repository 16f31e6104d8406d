import importlib

import oscontrol

REMOVED = (
    "positivity_condition", "positive_triple", "non_recurrence_witness", "bracket_hamiltonians",
    "conditioning_bound", "TripleParams", "DEFAULT_RESIDUAL_TOL",
)
MODULES = ("chain", "closure", "hamiltonians", "recurrence", "williamson")


def test_every_exported_name_resolves():
    assert len(set(oscontrol.__all__)) == len(oscontrol.__all__)
    for name in oscontrol.__all__:
        assert getattr(oscontrol, name) is not None, name


def test_removed_names_are_not_exported():
    # the chain's positivity and triple are decided by controllability_report
    # alone; the bracket formula lives in the closure; K is the recurrence
    # result's conditioning; the triple is fixed, so it has no weights to pass;
    # the Williamson residual bound is fixed, so it has no default either
    modules = [oscontrol] + [importlib.import_module(f"oscontrol.{m}") for m in MODULES]
    for name in REMOVED:
        assert name not in oscontrol.__all__
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
