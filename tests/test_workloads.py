"""Tests for the workloads package: gallery classifications (experiment
E1's assertions), practical scenarios, parametric families, and the
random query generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.safety import allowed, em_allowed, range_restricted, safe_top91
from repro.semantics.domain_independence import edi_witness
from repro.semantics.eval_calculus import evaluate_query
from repro.translate.pipeline import translate_query
from repro.algebra.evaluator import evaluate
from repro.errors import TransformationStuckError
from repro.workloads.families import (
    chain_query,
    family_instance,
    family_interpretation,
    join_chain_query,
    t10_family_query,
    union_query,
)
from repro.workloads.gallery import GALLERY, gallery_instance, standard_gallery_interp
from repro.workloads.practical import parts_scenario, payroll_scenario
from repro.workloads.random_queries import break_boundedness, random_em_allowed_query


class TestGalleryClassifications:
    """Experiment E1: every classification the paper states."""

    @pytest.mark.parametrize("key", list(GALLERY))
    def test_em_allowed(self, key):
        entry = GALLERY[key]
        assert em_allowed(entry.query.body) == entry.em_allowed, key

    @pytest.mark.parametrize("key", list(GALLERY))
    def test_allowed_gt91(self, key):
        entry = GALLERY[key]
        assert allowed(entry.query.body) == entry.allowed_gt91, key

    @pytest.mark.parametrize("key", list(GALLERY))
    def test_safe_top91(self, key):
        entry = GALLERY[key]
        assert safe_top91(entry.query.body) == entry.safe_top91, key

    @pytest.mark.parametrize("key", list(GALLERY))
    def test_range_restricted(self, key):
        entry = GALLERY[key]
        assert range_restricted(entry.query.body) == entry.range_restricted, key

    @pytest.mark.parametrize("key", [k for k, e in GALLERY.items() if e.translatable])
    def test_translatable(self, key):
        assert translate_query(GALLERY[key].query).plan is not None

    @pytest.mark.parametrize("key",
                             [k for k, e in GALLERY.items() if not e.translatable])
    def test_untranslatable_refused(self, key):
        from repro.errors import NotEmAllowedError
        with pytest.raises(NotEmAllowedError):
            translate_query(GALLERY[key].query)

    @pytest.mark.parametrize("key", [k for k, e in GALLERY.items() if e.needs_t10])
    def test_needs_t10(self, key):
        with pytest.raises(TransformationStuckError):
            translate_query(GALLERY[key].query, enable_t10=False)

    @pytest.mark.parametrize(
        "key",
        [k for k, e in GALLERY.items()
         if e.translatable and not e.embedded_domain_independent])
    def test_no_translatable_entry_is_domain_dependent(self, key):
        raise AssertionError("translatable gallery entries must be EDI")

    @pytest.mark.parametrize(
        "key",
        [k for k, e in GALLERY.items()
         if not e.embedded_domain_independent and k != "q6"])
    def test_non_edi_entries_witnessed(self, key):
        inst = gallery_instance()
        interp = standard_gallery_interp()
        report = edi_witness(GALLERY[key].query, inst, interp, trials=8)
        assert not report.independent, key


class TestPracticalScenarios:
    @pytest.mark.parametrize("factory", [payroll_scenario, parts_scenario])
    def test_all_queries_em_allowed(self, factory):
        scenario = factory()
        for name, q in scenario.queries.items():
            assert em_allowed(q.body), f"{scenario.name}.{name}"

    @pytest.mark.parametrize("factory", [payroll_scenario, parts_scenario])
    def test_translation_matches_reference(self, factory):
        scenario = factory()
        inst = scenario.instance(scale=6, seed=3)
        for name, q in scenario.queries.items():
            res = translate_query(q, schema=scenario.schema)
            got = evaluate(res.plan, inst, scenario.interpretation, schema=res.schema)
            want = evaluate_query(q, inst, scenario.interpretation)
            assert got == want, f"{scenario.name}.{name}"

    def test_instances_deterministic(self):
        scenario = payroll_scenario()
        assert scenario.instance(scale=5, seed=9) == scenario.instance(scale=5, seed=9)

    def test_descriptions_cover_queries(self):
        for scenario in (payroll_scenario(), parts_scenario()):
            assert set(scenario.descriptions) == set(scenario.queries)


class TestFamilies:
    def test_chain_query_shape(self):
        q = chain_query(3)
        assert em_allowed(q.body)
        res = translate_query(q)
        assert res.trace.count("T16") == 3

    def test_union_query_alternates_directions(self):
        q = union_query(4)
        assert em_allowed(q.body)
        from repro.safety import safe_top91
        assert not safe_top91(q.body)

    def test_union_width_validated(self):
        with pytest.raises(ValueError):
            union_query(1)

    def test_join_chain(self):
        q = join_chain_query(3)
        assert em_allowed(q.body)
        res = translate_query(q)
        assert res.trace.count("T15") == 1

    def test_family_instance_covers_relations(self):
        q = t10_family_query(2)
        inst = family_instance(q, n_rows=4, universe_size=6, seed=0)
        for name in q.relation_names():
            assert inst.has_relation(name)

    def test_family_interpretation_total(self):
        interp = family_interpretation()
        assert interp.apply("f3", "weird-value") in range(50)

    @pytest.mark.parametrize("maker,n", [
        (chain_query, 2), (union_query, 3), (t10_family_query, 2),
        (join_chain_query, 2),
    ])
    def test_families_translate_and_agree(self, maker, n):
        q = maker(n)
        inst = family_instance(q, n_rows=4, universe_size=5, seed=1)
        interp = family_interpretation(modulus=9)
        res = translate_query(q)
        got = evaluate(res.plan, inst, interp, schema=res.schema)
        want = evaluate_query(q, inst, interp)
        assert got == want


class TestRandomQueries:
    def test_deterministic_per_seed(self):
        assert random_em_allowed_query(5) == random_em_allowed_query(5)

    def test_text_independent_of_string_hashing(self):
        """A seed spells the same query in every process: the corpus
        text must not follow ``PYTHONHASHSEED``."""
        script = (
            "from repro.core.printer import to_text\n"
            "from repro.workloads.random_queries import "
            "random_em_allowed_query\n"
            "for seed in range(400):\n"
            "    print(to_text(random_em_allowed_query(seed)))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        texts = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            texts.append(proc.stdout)
        assert len(texts[0].splitlines()) == 400
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_queries_are_em_allowed(self, seed):
        q = random_em_allowed_query(seed)
        assert em_allowed(q.body)

    def test_variable_cap_respected(self):
        from repro.core.formulas import all_variables
        for seed in range(8):
            q = random_em_allowed_query(seed, max_total_vars=4)
            assert len(all_variables(q.body)) <= 4

    def test_break_boundedness_produces_unsafe_mutant(self):
        found = 0
        for seed in range(20):
            q = random_em_allowed_query(seed)
            mutant = break_boundedness(q)
            if mutant is not None and not em_allowed(mutant.body):
                found += 1
        assert found >= 3  # the mutator regularly produces negatives
