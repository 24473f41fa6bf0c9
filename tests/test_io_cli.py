"""Tests for instance serialization and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.data.instance import Instance
from repro.data.io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from repro.data.relation import Relation
from repro.errors import EvaluationError


class TestInstanceJson:
    def test_round_trip(self):
        inst = Instance.of(R=[(1, 2), (3, 4)], S=["a", "b"])
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_empty_relation_round_trip(self):
        inst = Instance({"R": Relation.empty(3)})
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_arity_inferred_from_rows(self):
        inst = instance_from_json('{"R": {"rows": [[1, 2]]}}')
        assert inst.relation("R").arity == 2

    def test_empty_needs_arity(self):
        with pytest.raises(EvaluationError):
            instance_from_json('{"R": {"rows": []}}')

    def test_invalid_json(self):
        with pytest.raises(EvaluationError):
            instance_from_json("{nope")

    def test_non_object_payload(self):
        with pytest.raises(EvaluationError):
            instance_from_json("[1, 2]")

    def test_missing_rows_key(self):
        with pytest.raises(EvaluationError):
            instance_from_json('{"R": {"arity": 1}}')

    def test_stable_output(self):
        inst = Instance.of(R=[(2,), (1,)])
        assert instance_to_json(inst) == instance_to_json(inst)
        payload = json.loads(instance_to_json(inst))
        assert payload["R"]["rows"] == [[1], [2]]

    def test_file_round_trip(self, tmp_path):
        inst = Instance.of(EMP=[("ann", 1), ("bob", 2)])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


class TestCli:
    def test_check_em_allowed_query(self, capsys):
        code = main(["check", "{ x | R(x) & ~S(x) }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "em-allowed:       True" in out

    def test_check_unsafe_query_nonzero_exit(self, capsys):
        code = main(["check", "{ x | f(x) = x }"])
        out = capsys.readouterr().out
        assert code == 2  # safety violations are errors, like lint errors
        assert "not bounded" in out

    def test_check_explain_renders_diagnostics(self, capsys):
        code = main(["check", "--explain", "{ x | f(x) = x }"])
        out = capsys.readouterr().out
        assert code == 2
        assert "error[EM001]" in out
        assert "help:" in out

    def test_translate_prints_plan(self, capsys):
        code = main(["translate", "{ g(f(x)) | R(x) }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "project([g(f(@1))], R)" in out

    def test_translate_trace_flag(self, capsys):
        code = main(["translate", "{ x | R(x) & ~S(x) }", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T15" in out

    def test_translate_refuses_unsafe(self, capsys):
        code = main(["translate", "{ x | f(x) = x }"])
        err = capsys.readouterr().err
        assert code == 1
        assert "refused" in err

    def test_run_with_data_and_functions(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]}}')
        funcs = tmp_path / "funcs.py"
        funcs.write_text("FUNCTIONS = {'f': lambda v: v + 1}\n")
        code = main([
            "run", "{ x | R(x) & exists y (f(x) = y & ~R(y)) }",
            "--data", str(data), "--functions", str(funcs),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "result rows" in out
        assert "\n  3" in out  # the single answer

    def test_run_default_functions(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2]]}}')
        code = main(["run", "{ x | R(x) }", "--data", str(data)])
        assert code == 0

    def test_run_bad_functions_file(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1]]}}')
        funcs = tmp_path / "funcs.py"
        funcs.write_text("NOT_FUNCTIONS = 1\n")
        code = main(["run", "{ f(x) | R(x) }", "--data", str(data),
                     "--functions", str(funcs)])
        assert code == 2

    def test_parse_error_reported(self, capsys):
        code = main(["check", "{ x | R(x"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_demo_lists_gallery(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q4" in out and "q5" in out


class TestCliTypecheck:
    def _write_data(self, tmp_path):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]},'
                        ' "S": {"arity": 1, "rows": [[2]]}}')
        return data

    def test_typecheck_clean_query(self, capsys):
        code = main(["typecheck", "{ g(f(x)) | R(x) }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result columns: [any] term_2(adom(I) + consts)" in out
        assert ("finiteness: every output value lies in "
                "term_2(adom(I) + consts)") in out
        assert "no problems found" in out
        # the typed plan annotates every node
        assert out.count("::") >= 2

    def test_typecheck_reports_diagnostics(self, capsys):
        code = main(["typecheck", "{ x | R(x) & 1 = 2 }"])
        out = capsys.readouterr().out
        assert code == 1  # notes, but no errors
        assert "info[TY005]" in out

    def test_typecheck_with_data_validates_rewrites(self, tmp_path,
                                                    capsys):
        data = self._write_data(tmp_path)
        code = main(["typecheck", "{ x | R(x) & S(x) }",
                     "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rewrite step(s) validated" in out

    def test_typecheck_json_payload(self, capsys):
        code = main(["typecheck", "{ g(f(x)) | R(x) }", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["arity"] == 1
        assert payload["function_depth"] == 2
        assert payload["certificate"] == "term_2(adom(I) + consts)"
        assert payload["diagnostics"]["summary"]["error"] == 0

    def test_typecheck_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "types.json"
        code = main(["typecheck", "{ x | R(x) }", "--json",
                     str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["columns"] == ["any"]

    def test_typecheck_refuses_unsafe(self, capsys):
        code = main(["typecheck", "{ x | f(x) = x }"])
        assert code == 1
        assert "refused" in capsys.readouterr().err


class TestCliProfile:
    def _write_data(self, tmp_path):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]}}')
        return data

    def test_profile_prints_spans_and_explain(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["profile", "{ x | R(x) & exists y (f(x) = y & ~R(y)) }",
                     "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "translation spans:" in out
        for phase in ("standardize", "safety", "enf", "compile", "simplify"):
            assert phase in out
        assert "explain analyze:" in out
        assert "est=" in out and "actual rows=" in out
        assert "q-error by operator class:" in out

    def test_profile_json_export(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        out_path = tmp_path / "profile.json"
        code = main(["profile", "{ x | R(x) }", "--data", str(data),
                     "--json", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"profile", "translation", "metrics"}
        for op in payload["profile"]["operators"]:
            assert {"rows_out", "calls", "elapsed_s",
                    "estimated_rows"} <= set(op)

    def test_profile_refuses_unsafe(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["profile", "{ x | f(x) = x }", "--data", str(data)])
        assert code == 1
        assert "refused" in capsys.readouterr().err

    def test_run_analyze_flag(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) }", "--data", str(data), "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert "explain analyze:" in out
        assert "actual rows=" in out
        assert "self=" in out
        assert "rewrites" in out

    def test_analyze_shows_typed_facts(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) & exists y (f(x) = y & ~R(y)) }",
                     "--data", str(data), "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert ":: [" in out  # per-operator typed-facts continuation lines


class TestCliOptimize:
    def _write_data(self, tmp_path):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]},'
                        ' "S": {"arity": 1, "rows": [[2], [3]]}}')
        return data

    def test_run_no_optimize(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) & S(x) }", "--data", str(data),
                     "--no-optimize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 result rows" in out

    def test_run_optimize_matches_no_optimize(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        query = "{ x | R(x) & ~S(x) }"
        assert main(["run", query, "--data", str(data), "--optimize"]) == 0
        tuned = capsys.readouterr().out
        assert main(["run", query, "--data", str(data),
                     "--no-optimize"]) == 0
        plain = capsys.readouterr().out
        assert "\n  1" in tuned
        # both modes return the same answer rows and row count (the
        # summary line also carries wall-clock timings, which differ
        # run to run)
        assert tuned.split("result rows")[0] == plain.split("result rows")[0]
        tuned_rows = [l for l in tuned.splitlines() if l.startswith("  ")]
        plain_rows = [l for l in plain.splitlines() if l.startswith("  ")]
        assert tuned_rows == plain_rows

    def test_analyze_reports_rewrites_line(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) & S(x) }", "--data", str(data),
                     "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rewrites" in out


class TestCliStats:
    def _write_data(self, tmp_path):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 2, "rows": [[1, 1], [2, 1]]},'
                        ' "S": {"arity": 1, "rows": [[5]]}}')
        return data

    def test_stats_text_output(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["stats", "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "R: 2 rows; distinct per column: [2, 1]" in out
        assert "S: 1 rows; distinct per column: [1]" in out

    def test_stats_json_stdout(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["stats", "--data", str(data), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["R"] == {"rows": 2, "distinct": [2, 1]}
        assert payload["S"] == {"rows": 1, "distinct": [1]}

    def test_stats_json_file(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        target = tmp_path / "stats.json"
        code = main(["stats", "--data", str(data), "--json", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stats written to" in out
        payload = json.loads(target.read_text())
        assert set(payload) == {"R", "S"}

    def test_stats_empty_instance(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text("{}")
        code = main(["stats", "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no relations" in out

    def test_stats_missing_data_file(self, tmp_path, capsys):
        from repro.cli import DATA_ERROR_EXIT
        code = main(["stats", "--data", str(tmp_path / "nope.json")])
        assert code == DATA_ERROR_EXIT


class TestCliBatchSize:
    def _write_data(self, tmp_path):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]}}')
        return data

    def test_run_batch_size_flag(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) }", "--data", str(data),
                     "--batch-size", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 batches" in out

    def test_run_batch_size_env_default(self, tmp_path, capsys, monkeypatch):
        data = self._write_data(tmp_path)
        monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        code = main(["run", "{ x | R(x) }", "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 batches" in out
        # an explicit flag beats the environment
        monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        code = main(["run", "{ x | R(x) }", "--data", str(data),
                     "--batch-size", "1024"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 batches" in out

    def test_run_invalid_batch_size(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["run", "{ x | R(x) }", "--data", str(data),
                     "--batch-size", "0"])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    def test_profile_batch_size_flag(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        code = main(["profile", "{ x | R(x) }", "--data", str(data),
                     "--batch-size", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "explain analyze:" in out

    def test_bench_service_accepts_batch_size(self, capsys):
        code = main(["bench-service", "--repeat", "1", "--batch", "1",
                     "--batch-size", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cold vs warm" in out


class TestCliDataErrors:
    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        from repro.cli import DATA_ERROR_EXIT
        code = main(["run", "{ x | R(x) }",
                     "--data", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == DATA_ERROR_EXIT == 3
        assert "cannot read data file" in err
        assert "hint:" in err
        assert "Traceback" not in err

    def test_unparseable_data_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["profile", "{ x | R(x) }", "--data", str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot parse data file" in err
        assert "hint:" in err


class TestCliExplainAndModule:
    def test_translate_explain_flag(self, capsys):
        code = main(["translate", "{ x | R(x) & ~S(x) }", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AntiJoin" in out  # the operator tree

    def test_module_entry_point_exists(self):
        import importlib.util
        spec = importlib.util.find_spec("repro.__main__")
        assert spec is not None

    def test_run_limit_truncates(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text(
            '{"R": {"arity": 1, "rows": [' +
            ",".join(f"[{i}]" for i in range(30)) + ']}}')
        code = main(["run", "{ x | R(x) }", "--data", str(data),
                     "--limit", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "30 rows total" in out


class TestCliLint:
    def test_lint_clean_query(self, capsys):
        code = main(["lint", "{ x | R(x) & exists y (f(x) = y & ~R(y)) }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no problems found" in out

    def test_lint_warning_exit_code(self, capsys):
        code = main(["lint", "{ x | R(x) & x = x }"])
        out = capsys.readouterr().out
        assert code == 1
        assert "warning[LN008]" in out

    def test_lint_error_exit_code(self, capsys):
        code = main(["lint", "{ x | ~R(x) }"])
        out = capsys.readouterr().out
        assert code == 2
        assert "error[EM001]" in out
        assert "help:" in out

    def test_lint_parse_error_has_caret(self, capsys):
        code = main(["lint", "{ x | R(x & }"])
        out = capsys.readouterr().out
        assert code == 2
        assert "error[LN000]" in out
        assert "^" in out

    def test_lint_json_stdout(self, capsys):
        code = main(["lint", "{ x | ~R(x) }", "--json"])
        out = capsys.readouterr().out
        assert code == 2
        bundle = json.loads(out)
        assert bundle["summary"]["error"] >= 1
        assert any(d["code"] == "EM001" for d in bundle["diagnostics"])

    def test_lint_json_file(self, tmp_path, capsys):
        out_path = tmp_path / "lint.json"
        code = main(["lint", "{ x | R(x) & x = x }",
                     "--json", str(out_path)])
        capsys.readouterr()
        assert code == 1
        bundle = json.loads(out_path.read_text())
        assert bundle["summary"]["warning"] == 1

    def test_lint_gallery_queries_self_host(self, capsys):
        # The gallery's translatable queries must lint without errors
        # (warnings are allowed; unsafe gallery entries are expected to
        # produce EM diagnostics and are skipped here).
        from repro.safety import em_allowed
        from repro.workloads.gallery import GALLERY
        for key, entry in GALLERY.items():
            if not entry.translatable or not em_allowed(entry.query.body):
                continue
            code = main(["lint", entry.text])
            capsys.readouterr()
            assert code in (0, 1), key


class TestTranslatedPlansTypeCheck:
    def test_every_gallery_plan_is_well_typed(self):
        from repro.algebra.ast import arity_of
        from repro.translate import translate_query
        from repro.workloads.gallery import GALLERY
        for key, entry in GALLERY.items():
            if not entry.translatable:
                continue
            res = translate_query(entry.query)
            catalog = {d.name: d.arity for d in res.schema.relations}
            assert arity_of(res.plan, catalog) == entry.query.arity, key

    def test_corpus_plans_are_well_typed(self):
        from repro.algebra.ast import arity_of
        from repro.translate import translate_query
        from repro.workloads.random_queries import random_em_allowed_query
        for seed in range(15):
            q = random_em_allowed_query(seed)
            res = translate_query(q)
            catalog = {d.name: d.arity for d in res.schema.relations}
            assert arity_of(res.plan, catalog) == q.arity, seed


class TestCliServe:
    @staticmethod
    def _files(tmp_path, requests):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1], [2], [3]]},'
                        ' "EMP": {"arity": 2, "rows": [[1, 10], [2, 20]]}}')
        reqs = tmp_path / "requests.json"
        reqs.write_text(json.dumps(requests))
        return data, reqs

    def test_serve_mixed_request_file(self, tmp_path, capsys):
        data, reqs = self._files(tmp_path, [
            {"query": "{ x | R(x) }"},
            {"query": "{ x | R(x) }"},
            {"params": ["p"], "head": ["s"], "body": "EMP(p, s)",
             "rows": [[1], [2], [7]]},
        ])
        code = main(["serve", "--requests", str(reqs), "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 3 requests" in out
        assert "1 cache hits, 2 misses" in out
        assert "[2] { s | EMP(p, s) } [params: p; 3 rows]" in out

    def test_serve_refusal_exits_zero_error_exits_two(self, tmp_path, capsys):
        data, reqs = self._files(tmp_path, [{"query": "{ x | ~R(x) }"}])
        assert main(["serve", "--requests", str(reqs),
                     "--data", str(data)]) == 0
        assert "refused" in capsys.readouterr().out

        data, reqs = self._files(tmp_path, [{"query": "{ x | R(x"}])
        assert main(["serve", "--requests", str(reqs),
                     "--data", str(data)]) == 2

    def test_serve_json_export(self, tmp_path, capsys):
        data, reqs = self._files(tmp_path, [{"query": "{ x | R(x) }"}])
        out_path = tmp_path / "report.json"
        code = main(["serve", "--requests", str(reqs), "--data", str(data),
                     "--json", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["stats"]["requests"] == 1
        assert payload["reports"][0]["status"] == "ok"
        assert payload["reports"][0]["rows"] == [[1], [2], [3]]
        assert "plan_cache.misses" in payload["metrics"]

    def test_serve_limit_truncates_rows(self, tmp_path, capsys):
        data, reqs = self._files(tmp_path, [{"query": "{ x | R(x) }"}])
        code = main(["serve", "--requests", str(reqs), "--data", str(data),
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "... (3 rows total)" in out

    def test_serve_missing_requests_file(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1]]}}')
        code = main(["serve", "--requests", str(tmp_path / "nope.json"),
                     "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot read requests file" in err
        assert "hint:" in err
        assert "Traceback" not in err

    def test_serve_malformed_requests_file(self, tmp_path, capsys):
        data = tmp_path / "inst.json"
        data.write_text('{"R": {"arity": 1, "rows": [[1]]}}')
        reqs = tmp_path / "requests.json"
        reqs.write_text("{not json")
        code = main(["serve", "--requests", str(reqs), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot parse requests file" in err

    def test_bench_service_smoke(self, capsys):
        code = main(["bench-service", "--repeat", "1", "--batch", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cold vs warm" in out
        assert "batched vs looped" in out
