"""Outside-in tracer for graphbao's layers.

The tracer never edits graphbao.  It replaces public entry points with
timing wrappers at the place each name is looked up: class attributes for
methods (``FiniteBao.c`` and friends), and every loaded ``graphbao.*`` module
global that is bound to a traced function.  The modules import each other with
``from .x import y``, so patching only the defining module would miss calls
such as ``graphbao.ags.enumerate_atoms``.  ``uninstall`` puts every original
back and checks that it did.

Spans stay in memory as ``(job, span id, parent id, name, start ns, end ns)``
and are written out once the benchmark ends.  Generators are timed per
``next()``, so a span never covers time the consumer spends between items.
Spans are timed on the wall clock, whose reads cost a fifth of a CPU clock's;
``trace.overhead_s`` is in CPU seconds, like the end-to-end times.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

from graphbao import ags, atoms, bao, duality, equations, graph, networks

NOW = time.perf_counter_ns


def _count_atoms(t, args, result):
    t.add("atoms.count", len(result))


def _count_tables(t, args, result):
    # tables() caches its RelStructure; count each build once per job
    if all(rel is not result for rel in t.tables_seen):
        t.tables_seen.append(result)
        t.add("bao.subst_maps", len(result.subst_tables))


def _count_c(t, args, result):
    algebra, i, x = args
    t.add("bao.c_calls", 1)
    t.add("bao.c_input_bits", x.bit_count())
    t.add("cyl_classes_total", len(algebra.rel.cyl_class_masks[i]))


def _count_subalgebra(t, args, result):
    t.add("bao.subalgebra_closed", 1)
    t.add("bao.subalgebra_size", len(result))


def _counter(metric, amount=lambda result: 1):
    def hook(t, args, result):
        t.add(metric, amount(result))
    return hook


# (owner, attribute, span name, hook run after each return or next() item);
# each exception a wrapped call raises counts as "<span>.raised"
TRACED = [
    (atoms, "enumerate_atoms", "atoms.enumerate", _count_atoms),
    (atoms.AtomStructure, "tables", "bao.tables", _count_tables),
    (bao.FiniteBao, "c", "bao.c", _count_c),
    (bao.FiniteBao, "s", "bao.s", _counter("bao.s_calls")),
    (bao.FiniteBao, "generated_subalgebra", "bao.subalgebra", _count_subalgebra),
    (bao.FiniteBao, "ultrafilter_structure", "bao.ufstruct", None),
    (equations, "check_equation_sampled", "equations.sampled",
     _counter("equations.sampled_evals", lambda v: v.checked)),
    (equations, "check_equation_on_subuniverse", "equations.subalgebra",
     _counter("equations.subalgebra_evals", lambda v: v.checked)),
    (ags, "build_model", "ags.build_model", None),
    (ags, "check_rs_properties", "ags.rs", None),
    (ags, "check_projection_properties", "ags.proj", None),
    (ags, "check_substitution_properties", "ags.subst", None),
    (ags.AgsModel, "proj", "ags.proj_call", _counter("ags.proj_calls")),
    (networks, "exists_survives", "networks.game",
     _counter("networks.positions", lambda v: v.visited)),
    (networks, "forall_moves", "networks.forall_moves",
     _counter("networks.moves", len)),
    (networks, "exists_responses", "networks.responses",
     _counter("networks.responses")),
    (networks, "validate_network", "networks.validate",
     _counter("networks.validate_calls")),
    (duality, "lift", "duality.lift", None),
    (duality, "validate_atom_pmorphism", "duality.pmorphism_check", None),
    (duality, "dual_embedding", "duality.embedding", None),
    (duality, "validate_embedding", "duality.embedding_check", None),
    (duality, "dual_surjection", "duality.surjection", None),
    (graph, "chromatic_number", "graph.chromatic", None),
]
GENERATORS = {"networks.responses"}

# per-layer time metric -> span name whose busy time it reports
BUSY = {
    "atoms.enumerate_s": "atoms.enumerate",
    "bao.tables_s": "bao.tables",
    "bao.c_s": "bao.c",
    "bao.s_s": "bao.s",
    "bao.subalgebra_s": "bao.subalgebra",
    "bao.ufstruct_s": "bao.ufstruct",
    "equations.sampled_s": "equations.sampled",
    "equations.subalgebra_s": "equations.subalgebra",
    "ags.build_model_s": "ags.build_model",
    "ags.rs_s": "ags.rs",
    "ags.proj_s": "ags.proj",
    "ags.subst_s": "ags.subst",
    "networks.forall_moves_s": "networks.forall_moves",
    "networks.responses_s": "networks.responses",
    "networks.validate_s": "networks.validate",
    "duality.lift_s": "duality.lift",
    "duality.pmorphism_check_s": "duality.pmorphism_check",
    "duality.embedding_s": "duality.embedding",
    "duality.embedding_check_s": "duality.embedding_check",
    "duality.surjection_s": "duality.surjection",
    "graph.chromatic_s": "graph.chromatic",
}
# term evaluation happens inside these spans; their self time excludes bao work
EVALUATION_SPANS = ("equations.sampled", "equations.subalgebra")

# counts that must repeat exactly on the same seed
COUNTS = (
    "atoms.count", "bao.subst_maps", "bao.c_calls", "bao.c_input_bits",
    "bao.cyl_classes", "bao.s_calls", "bao.subalgebra_calls",
    "bao.subalgebra_overflows", "bao.subalgebra_size",
    "equations.sampled_evals", "equations.subalgebra_evals", "ags.proj_calls",
    "networks.positions", "networks.moves", "networks.responses",
    "networks.validate_calls",
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.tables_seen: list = []
        self.job = 0
        self._stack: list[tuple] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # spans ---------------------------------------------------------------
    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, parent, name, NOW()))
        self._next_id += 1

    def close(self) -> None:
        span_id, parent, name, start = self._stack.pop()
        self.spans.append((self.job, span_id, parent, name, start, NOW()))

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def add(self, metric: str, amount) -> None:
        self.counts[self.job][metric] += amount

    def start_job(self, job: int) -> None:
        self.job = job
        self.tables_seen = []

    # patching ------------------------------------------------------------
    def _wrap(self, fn, name, hook):
        tracer = self
        raised = name + ".raised"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.add(raised, 1)
                raise
            finally:
                tracer.close()
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__perfbench_span__ = name
        return traced

    def _wrap_generator(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close()
                    hook(tracer, args, item)
                    yield item
            finally:
                inner.close()

        traced.__perfbench_span__ = name
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "graphbao" or key.startswith("graphbao.")]
        for owner, attr, name, hook in TRACED:
            original = owner.__dict__[attr]
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            wrapped = wrap(original, name, hook)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for where in owners:
                self._patches.append((where, attr, original))
                setattr(where, attr, wrapped)

    def uninstall(self) -> None:
        for where, attr, original in reversed(self._patches):
            setattr(where, attr, original)
        self._patches = []
        if not self.unwrapped():
            raise RuntimeError("an original was not restored")

    @staticmethod
    def unwrapped() -> bool:
        """No class or module of graphbao still holds a tracing wrapper."""
        owners = [owner for owner, *_ in TRACED if isinstance(owner, type)]
        owners += [m for key, m in sys.modules.items()
                   if key == "graphbao" or key.startswith("graphbao.")]
        return not any(hasattr(value, "__perfbench_span__")
                       for owner in owners for value in vars(owner).values())

    # analysis ------------------------------------------------------------
    def job_spans(self, job: int) -> list[tuple]:
        return [s for s in self.spans if s[0] == job]

    def metrics(self, job: int) -> dict[str, float]:
        """Per-layer metrics of one job, times in seconds."""
        spans = self.job_spans(job)
        by_id = {s[1]: s for s in spans}
        self_ns = self_times(spans)
        busy = defaultdict(int)
        for span in spans:
            _job, _sid, parent, name, start, end = span
            # count a name only where it is not already inside itself
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[3] != name:
                ancestor = by_id.get(ancestor[2])
            if ancestor is None:
                busy[name] += end - start
        counts = self.counts[job]
        out = {metric: busy[span] / 1e9 for metric, span in BUSY.items()}
        out["equations.self_s"] = sum(
            self_ns[s[1]] for s in spans if s[3] in EVALUATION_SPANS) / 1e9
        for metric in COUNTS:
            out[metric] = counts.get(metric, 0)
        # an overflow is a closure abandoned at its bound: wasted work
        out["bao.subalgebra_overflows"] = counts.get("bao.subalgebra.raised", 0)
        out["bao.subalgebra_calls"] = (counts.get("bao.subalgebra_closed", 0)
                                       + out["bao.subalgebra_overflows"])
        c_calls = out["bao.c_calls"]
        out["bao.cyl_classes"] = counts.get("cyl_classes_total", 0) / c_calls if c_calls else 0
        out["bao.c_us"] = out["bao.c_s"] * 1e6 / c_calls if c_calls else 0.0
        s_calls = out["bao.s_calls"]
        out["bao.s_us"] = out["bao.s_s"] * 1e6 / s_calls if s_calls else 0.0
        game_s = busy["networks.game"] / 1e9
        out["networks.positions_per_s"] = out["networks.positions"] / game_s if game_s else 0.0
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: job, id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span in sorted(self.spans, key=lambda s: s[1]):
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns)."""
    covered = defaultdict(int)
    for _job, _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: end - start - covered[sid] for _job, sid, _p, _n, start, end in spans}


def nesting_errors(spans) -> list[str]:
    """Spans whose parent is missing, in another job, or does not enclose them."""
    by_id = {s[1]: s for s in spans}
    errors = []
    for job, sid, parent, name, start, end in spans:
        if end < start:
            errors.append(f"{name}#{sid} ends before it starts")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None or outer[0] != job:
            errors.append(f"{name}#{sid} has no parent in job {job}")
        elif not outer[4] <= start <= end <= outer[5]:
            errors.append(f"{name}#{sid} is not inside {outer[3]}#{parent}")
    return errors
