"""API-surface tests: every exported name exists, is importable, and is
documented — the contract a downstream user relies on."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.data",
    "repro.finds",
    "repro.safety",
    "repro.algebra",
    "repro.translate",
    "repro.semantics",
    "repro.engine",
    "repro.obs",
    "repro.workloads",
    "repro.analysis",
    "repro.service",
]

MODULES = PACKAGES + [
    "repro.core.terms", "repro.core.formulas", "repro.core.queries",
    "repro.core.schema", "repro.core.parser", "repro.core.printer",
    "repro.core.builders",
    "repro.data.relation", "repro.data.instance", "repro.data.interpretation",
    "repro.data.domain", "repro.data.generators", "repro.data.io",
    "repro.finds.find", "repro.finds.closure", "repro.finds.covers",
    "repro.finds.annotations",
    "repro.safety.pushnot", "repro.safety.bd", "repro.safety.gen",
    "repro.safety.em_allowed", "repro.safety.comparators",
    "repro.algebra.ast", "repro.algebra.evaluator", "repro.algebra.printer",
    "repro.translate.enf", "repro.translate.compiler", "repro.translate.ranf",
    "repro.translate.pipeline", "repro.translate.parameterized",
    "repro.translate.baseline_adom", "repro.translate.trace",
    "repro.semantics.eval_calculus", "repro.semantics.levels",
    "repro.semantics.domain_independence",
    "repro.engine.operators", "repro.engine.planner", "repro.engine.executor",
    "repro.engine.stats", "repro.engine.batches", "repro.engine.compile",
    "repro.engine.rewrite",
    "repro.obs.tracing", "repro.obs.metrics", "repro.obs.profile",
    "repro.obs.explain", "repro.obs.export",
    "repro.analysis.diagnostics", "repro.analysis.linter",
    "repro.analysis.typeinfer", "repro.analysis.validate",
    "repro.analysis.mutation",
    "repro.service.normalize", "repro.service.cache",
    "repro.service.service", "repro.service.bench",
    "repro.workloads.gallery", "repro.workloads.practical",
    "repro.workloads.families", "repro.workloads.random_queries",
    "repro.errors", "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and not obj.__doc__:
            undocumented.append(export)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_version_is_pep440_ish():
    import repro
    parts = repro.__version__.split(".")
    assert len(parts) >= 2 and all(p.isdigit() for p in parts[:2])


def test_errors_exported_at_top_level():
    import repro
    from repro import errors
    for name in ("ReproError", "ParseError", "NotEmAllowedError",
                 "TranslationError", "TransformationStuckError",
                 "EvaluationError", "SchemaError", "SafetyError"):
        assert getattr(repro, name) is getattr(errors, name)
