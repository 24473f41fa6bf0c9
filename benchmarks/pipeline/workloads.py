"""The five benchmark workloads: their data, request mix and answers.

Every workload is built from its seed alone.  The seed drives the
cold-corpus queries and instance, the written rows, the parameter rows
and the order of every mix; the analytic data is fixed, so its answers
can be checked against reference digests computed once
(``python -m benchmarks.pipeline reference``).

A workload serves *passes*.  A pass is one request per mix entry, so
its time is comparable across seeds, and every pass of a workload does
the same work, so counters per request repeat exactly for a fixed pass
count.  Each workload records why it was chosen in ``why``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass

from repro import Instance, Relation, em_allowed, evaluate, parse_query, translate_query
from repro.algebra.evaluator import EvalStats
from repro.core.schema import DatabaseSchema
from repro.data.generators import random_instance, standard_functions
from repro.service import QueryService, ServiceReport, ServiceRequest, plan_cache_key
from repro.translate import bind_parameters, parameterized_query, translate_parameterized
from repro.workloads.families import join_chain_query
from repro.workloads.gallery import GALLERY, standard_gallery_interp
from repro.workloads.random_queries import break_boundedness, random_em_allowed_query

__all__ = ["Item", "REFUSED", "WORKLOADS", "Workload", "analytic_relations",
           "analytic_queries", "relation_digest", "DIGESTS_PATH"]

#: ex74 is left out of every mix: at 3000 rows it emits 2.4 M rows in
#: 17 s, and at 300 rows it would dominate every pass.
GALLERY_MIX = tuple(key for key, entry in GALLERY.items()
                    if entry.translatable and key != "ex74")

#: The scan/join/map-heavy subset (comparison filters, equi-joins, head
#: reordering) on which column batches have real kernels.
SCAN_JOIN_MAP = {
    "scan-filter": "{ x, y | R2(x, y) & x < 2000 & y > 100 }",
    "scan-filter-neg": "{ x, y | P(x, y) & x < 3000 & ~(y = 7) & x > 10 }",
    "join": "{ x, y, z | R2(x, y) & P(x, z) }",
    "join-filter": "{ x, y, z | R2(x, y) & S2(y, z) & x < 3500 }",
    "tri-join": "{ x, y | R2(x, y) & S(x) & T(y) }",
    "map-reorder": "{ y, x | R2(x, y) & x < 3000 }",
}

#: Join chains whose translated join order is maximally wrong on the
#: skewed relations, so join reordering decides their cost.
CHAIN_LENGTHS = (3, 4, 5)

DIGESTS_PATH = pathlib.Path(__file__).with_name("reference_digests.json")

#: The checkout root: ``src/`` holds the library.
_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Child program of :class:`ServeCold`: ``SEED SIZE PATH...``; writes
#: the pickled corpus to standard output.
_CORPUS_CHILD = """\
import pickle, sys
sys.path[:0] = sys.argv[3:]
from benchmarks.pipeline.workloads import ServeCold
corpus = ServeCold.corpus(int(sys.argv[1]), int(sys.argv[2]))
sys.stdout.buffer.write(pickle.dumps(corpus))
"""

#: Marker for an expected (or served) refusal.
REFUSED = "refused"


@dataclass(frozen=True)
class Item:
    """One request of a pass.  ``write`` (relation name, arity, rows)
    replaces a relation before the read; the two are timed together."""

    request: ServiceRequest
    write: tuple[str, int, tuple] | None = None


def _text(text: str) -> ServiceRequest:
    return ServiceRequest(query=text)


def _pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def scaled_gallery_relations(n: int, universe: int) -> dict[str, Relation]:
    """The gallery's relations at ``n`` rows each.

    Affine fills with strides coprime to the universe, so relations do
    not collapse under set semantics; the same names and arities as the
    gallery's own instance, so every gallery query runs unchanged.
    """
    def unary(stride: int, offset: int) -> Relation:
        return Relation(1, {((i * stride + offset) % universe,)
                            for i in range(n)})

    def binary(s1: int, o1: int, s2: int, o2: int) -> Relation:
        return Relation(2, {((i * s1 + o1) % universe,
                             (i * s2 + o2) % universe) for i in range(n)})

    def ternary(s1: int, s2: int, s3: int) -> Relation:
        return Relation(3, {((i * s1) % universe, (i * s2 + 1) % universe,
                             (i * s3 + 2) % universe) for i in range(n)})

    return {
        "R": unary(3, 1),
        "S": unary(5, 2),
        "T": unary(7, 3),
        "R2": binary(3, 0, 11, 8),
        "S2": binary(3, 0, 11, 8),      # overlaps R2: diffs/anti-joins bite
        "P": binary(7, 2, 17, 5),
        "R3": ternary(3, 5, 7),
        "W": ternary(11, 5, 13),
    }


def skewed_chain_relations(n: int = max(CHAIN_LENGTHS), big: int = 600,
                           fanout: int = 60, small: int = 5
                           ) -> dict[str, Relation]:
    """``E0..E{n-1}`` and ``B`` for the join chains: ``E0 ⋈ E1`` (the
    translator's first join) yields ``big * fanout`` rows, each later
    ``Ek`` keeps ``small`` of them."""
    keys = big // fanout
    rels = {
        "E0": Relation(2, [(i, i % keys) for i in range(big)]),
        "E1": Relation(2, [(j % keys, j) for j in range(big)]),
    }
    for k in range(2, n):
        rels[f"E{k}"] = Relation(2, [(j, j % small) for j in range(small)])
    rels["B"] = Relation(2, [(0, 0)])
    return rels


def emp_relation(n: int = 300) -> Relation:
    """``EMP(id, salary)``: the point-lookup target of the
    parameterized requests."""
    return Relation(2, [(i, (i * 37 + 11) % 500) for i in range(n)])


def analytic_relations() -> dict[str, Relation]:
    rels = scaled_gallery_relations(3000, 4096)
    rels.update(skewed_chain_relations())
    return rels


def analytic_queries() -> dict[str, str]:
    texts = {key: GALLERY[key].text for key in GALLERY_MIX}
    texts.update(SCAN_JOIN_MAP)
    for n in CHAIN_LENGTHS:
        texts[f"chain{n}"] = str(join_chain_query(n))
    return texts


def relation_digest(relation: Relation) -> str:
    """Order-independent content hash of an answer."""
    lines = sorted(repr(row) for row in relation.rows)
    payload = f"{relation.arity}\n" + "\n".join(lines)
    return hashlib.sha256(payload.encode()).hexdigest()


def data_digest(relations: dict[str, Relation], texts: dict[str, str]) -> str:
    payload = json.dumps({
        "relations": {name: relation_digest(rel)
                      for name, rel in sorted(relations.items())},
        "queries": texts,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_answer(text: str, instance: Instance, interp,
                     stats: EvalStats | None = None) -> Relation:
    """The reference algebra evaluator's answer to ``text``."""
    result = translate_query(parse_query(text))
    return evaluate(result.plan, instance, interp, schema=result.schema,
                    stats=stats)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, set-up and answers of one workload.

    ``__init__`` makes the inputs and reference answers (excluded from
    set-up time); :meth:`build` plus one pass of :meth:`warmup_items` is
    the timed set-up.  ``cold`` workloads serve every pass on a fresh
    service with the safety memo tables cleared, so every request
    misses the plan cache.
    """

    name: str
    why: str
    batch_repr: str | None = None
    cold = False
    #: Passes of the traced run: one fifth of a typical end-to-end run.
    trace_passes: int

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed

    def relations(self) -> dict[str, Relation]:
        raise NotImplementedError

    def build(self) -> tuple[Instance, QueryService]:
        instance = Instance(self.relations())
        return instance, self.new_service(instance)

    def new_service(self, instance: Instance) -> QueryService:
        return QueryService(instance, interpretation=self.interp,
                            batch_repr=self.batch_repr)

    def warmup_items(self) -> list[Item]:
        return self.pass_items(-1)

    def pass_items(self, index: int) -> list[Item]:
        raise NotImplementedError

    def expected(self, item: Item, instance: Instance, version: int
                 ) -> Relation | str:
        """The right answer to ``item`` on ``instance`` (``version`` =
        writes applied so far), or :data:`REFUSED`."""
        raise NotImplementedError

    def check(self, item: Item, report: ServiceReport, instance: Instance,
              version: int) -> bool:
        if report.status == "error":
            return False
        if self.batch_repr is not None and report.ok \
                and report.batch_repr != self.batch_repr:
            return False    # a silent fallback measures the wrong engine
        want = self.expected(item, instance, version)
        if want == REFUSED:
            return report.status == "refused"
        return report.ok and report.result == want


class _GalleryWorkload(Workload):
    """Gallery queries on the 300-row scaled gallery."""

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.interp = standard_gallery_interp()
        self.texts = [GALLERY[key].text for key in GALLERY_MIX]
        self.base = Instance(self.relations())
        self.answers = {text: reference_answer(text, self.base, self.interp)
                        for text in self.texts}


class ServeWarm(_GalleryWorkload):
    name = "serve-warm"
    why = ("Warm plan cache, small data: translation never runs, so "
           "rewrite, planning and service overhead are a third of each "
           "request; fresh parameter rows defeat plan-keyed caching.")
    trace_passes = 240

    #: Parameter rows per parameterized request, and the id range they
    #: are drawn from (a quarter of it misses EMP).
    PARAM_BATCHES = (8, 64)
    PARAM_DOMAIN = 400
    PARAM_BODY = ("p",), ("s",), "EMP(p, s)"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        params, head, body = self.PARAM_BODY
        plan = translate_parameterized(parameterized_query(params, head, body))
        # Binding distributes over union, so a batch's answer is the
        # union of its rows' single-row reference answers.
        self.param_answers = {
            value: evaluate(bind_parameters(plan.plan, [(value,)]), self.base,
                            self.interp, schema=plan.schema).rows
            for value in range(self.PARAM_DOMAIN)}

    def relations(self) -> dict[str, Relation]:
        rels = scaled_gallery_relations(300, 1024)
        rels["EMP"] = emp_relation()
        return rels

    def pass_items(self, index: int) -> list[Item]:
        rng = _pass_rng(self.seed, index)
        params, head, body = self.PARAM_BODY
        items = [Item(_text(text)) for text in self.texts]
        for size in self.PARAM_BATCHES:
            rows = tuple((v,) for v in rng.sample(range(self.PARAM_DOMAIN),
                                                  size))
            items.append(Item(ServiceRequest(params=params, head=head,
                                             body=body, rows=rows)))
        rng.shuffle(items)
        return items

    def expected(self, item, instance, version):
        request = item.request
        if request.query is not None:
            return self.answers[request.query]
        rows = set()
        for (value,) in request.rows:
            rows |= self.param_answers[value]
        return Relation(2, rows)


class ServeCold(Workload):
    name = "serve-cold"
    why = ("Distinct random em-allowed queries and refused mutants on tiny "
           "data: every request misses the plan cache, so parse, safety "
           "and translation dominate.")
    cold = True
    trace_passes = 2

    SCHEMA = DatabaseSchema.of(
        {"R0": 1, "R1": 2, "R2": 2, "R3": 3, "S0": 1, "S1": 2},
        {"f": 1, "g": 1, "h": 1})
    #: Distinct queries per pass, refused mutants included.
    CORPUS = 500
    QUICK_CORPUS = 40
    #: Queries whose reference evaluation produces more intermediate
    #: rows are left out: the few that do would otherwise make a pass's
    #: time depend on whether the seed drew them.
    MAX_REFERENCE_ROWS = 5000

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.interp, self.instance = self.data(seed)
        # The corpus and its reference answers are made in a child
        # process, so the reference evaluator's memory stays out of this
        # process's peak RSS.  The child is a plain interpreter, not a
        # multiprocessing pool, so it starts no helper process of its
        # own, and ``subprocess.run`` returns only once it has ended.
        size = self.QUICK_CORPUS if quick else self.CORPUS
        child = subprocess.run(
            [sys.executable, "-c", _CORPUS_CHILD, str(seed), str(size),
             str(_ROOT / "src"), str(_ROOT)],
            stdout=subprocess.PIPE, check=True)
        self.answers = pickle.loads(child.stdout)
        self.texts = list(self.answers)

    @classmethod
    def data(cls, seed: int):
        return (standard_functions(cls.SCHEMA, modulus=16),
                random_instance(cls.SCHEMA, 20, range(16), seed=seed))

    @classmethod
    def corpus(cls, seed: int, size: int) -> dict[str, Relation | str]:
        """``size`` distinct queries (by plan-cache key) with their
        reference answers, or :data:`REFUSED` for mutants that are not
        em-allowed."""
        interp, instance = cls.data(seed)
        keys: set = set()
        answers: dict[str, Relation | str] = {}

        def add(query) -> None:
            key = plan_cache_key(query, None, None)
            if key in keys:
                return
            keys.add(key)
            text = str(query)
            answer: Relation | str = REFUSED
            if em_allowed(query.body):
                stats = EvalStats()
                answer = reference_answer(text, instance, interp, stats)
                if stats.rows_produced > cls.MAX_REFERENCE_ROWS:
                    return
            answers[text] = answer

        query_seed = seed * 1_000_003
        while len(answers) < size:
            query = random_em_allowed_query(query_seed)
            query_seed += 1
            add(query)
            mutant = break_boundedness(query)
            if mutant is not None:
                add(mutant)
        return answers

    def relations(self) -> dict[str, Relation]:
        return {name: self.instance.relation(name)
                for name in self.instance.names}

    def pass_items(self, index: int) -> list[Item]:
        items = [Item(_text(text)) for text in self.texts]
        _pass_rng(self.seed, index).shuffle(items)
        return items

    def expected(self, item, instance, version):
        return self.answers[item.request.query]


class Analytic(Workload):
    name = "analytic-3000"
    why = ("3000-row gallery, scan/join/map subset and skewed join chains "
           "on tuple batches: execution is over 90% of each request.")
    trace_passes = 20

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.interp = standard_gallery_interp()
        self.queries = analytic_queries()
        self.texts = list(self.queries.values())
        digests = load_digests()
        if digests.get("data") != data_digest(analytic_relations(),
                                              self.queries):
            raise SystemExit(
                "analytic reference digests do not match the data; run "
                "`python -m benchmarks.pipeline reference`")
        self.digests = {self.queries[key]: digest
                        for key, digest in digests["answers"].items()}
        self.verified: dict[str, Relation] = {}

    def relations(self) -> dict[str, Relation]:
        return analytic_relations()

    def pass_items(self, index: int) -> list[Item]:
        items = [Item(_text(text)) for text in self.texts]
        _pass_rng(self.seed, index).shuffle(items)
        return items

    def check(self, item, report, instance, version):
        text = item.request.query
        if text not in self.verified and report.ok:
            # The first answer is held to the reference digest; repeats
            # are then compared with it directly.
            if relation_digest(report.result) != self.digests[text]:
                return False
            self.verified[text] = report.result
        return super().check(item, report, instance, version)

    def expected(self, item, instance, version):
        return self.verified.get(item.request.query)


class AnalyticColumn(Analytic):
    name = "analytic-3000-column"
    why = ("The analytic-3000 mix on column batches: same plans through "
           "the vectorized kernels, so a shared-operator change that "
           "favours one representation shows on the other.")
    batch_repr = "column"


class UpdateMix(_GalleryWorkload):
    name = "update-mix"
    why = ("The gallery mix with every 10th request a row replacement: "
           "each write creates unseen content, so caches keyed by the "
           "instance pay their invalidation here.")
    trace_passes = 160

    READS_PER_WRITE = 9
    #: The read served right after a write to each relation; its answer
    #: changes with the write and is cheap for the reference evaluator.
    POST_WRITE_READ = {"R": GALLERY["q1"].text, "S": GALLERY["q5"].text,
                       "R2": GALLERY["ex_const"].text}
    #: Written values start above the data's universe, so every write
    #: creates content no cache has seen.
    FRESH = 1 << 20

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.base_rows = {name: sorted(self.base.relation(name).rows)
                          for name in self.POST_WRITE_READ}
        self._state: Instance | None = None
        self._checked: dict[str, Relation] = {}
        self._oracle: QueryService | None = None

    def relations(self) -> dict[str, Relation]:
        return scaled_gallery_relations(300, 1024)

    def warmup_items(self) -> list[Item]:
        return [Item(_text(text)) for text in self.texts]

    def pass_items(self, index: int) -> list[Item]:
        rng = _pass_rng(self.seed, index)
        order = list(self.texts)
        rng.shuffle(order)
        reads = (order * 2)[:self.READS_PER_WRITE]
        name = rng.choice(sorted(self.POST_WRITE_READ))
        rows = list(self.base_rows[name])
        victim = rng.randrange(len(rows))
        # index >= 0 for measured passes, so fresh values never repeat
        # within a run: each write replaces the relation's previous one.
        rows[victim] = (self.FRESH + index,) + rows[victim][1:]
        write = (name, len(rows[0]), tuple(rows))
        return [Item(_text(text)) for text in reads] + [
            Item(_text(self.POST_WRITE_READ[name]), write=write)]

    def expected(self, item, instance, version):
        text = item.request.query
        if version == 0:
            return self.answers[text]
        if item.write is not None:
            return reference_answer(text, instance, self.interp)
        # Other reads after a write: the engine with the rewrite pass off,
        # memoized per state.  It runs after the measured read, so it
        # cannot warm a cache that read would have missed.
        if instance is not self._state:
            self._state = instance
            self._checked = {}
            if self._oracle is None:
                self._oracle = QueryService(instance, interpretation=self.interp,
                                            optimize=False)
            self._oracle.set_instance(instance)
        if text not in self._checked:
            self._checked[text] = self._oracle.run(text).result
        return self._checked[text]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeWarm, ServeCold, Analytic, AnalyticColumn,
                              UpdateMix)}


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def compute_digests() -> dict:
    """Reference digests of every analytic answer (minutes: the
    reference evaluator joins by nested loops)."""
    relations = analytic_relations()
    queries = analytic_queries()
    instance = Instance(relations)
    interp = standard_gallery_interp()
    answers = {key: relation_digest(reference_answer(text, instance, interp))
               for key, text in queries.items()}
    return {"data": data_digest(relations, queries), "answers": answers}
