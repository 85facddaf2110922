"""Span tracing of raikit's layers from outside the package.

``install`` wraps the public callables of the package's modules (the
layers ``cli``, ``matrices``, ``sequences``, ``graphs``, ``engine``,
``opinions`` and ``solvers``).  A function is replaced under every name a
caller can resolve it by: each ``raikit`` module whose namespace holds it,
since modules import one another's functions by name.  A method is patched
on its class.  ``uninstall`` puts every original back.

Spans are kept in memory.  Every span adds its duration minus its
children's to the self time of its name (``<layer>.<part>``); spans of the
benchmark itself are named ``bench.*`` and their self time is the time no
layer accounts for.  Spans of depth at most one below an operation are also
kept as records, tagged with the operation they belong to, and written out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "matrices", "sequences", "graphs", "engine", "opinions", "solvers")


class Recorder:
    """Span stack, self times, call counts and counters of one pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.records: list[list] = []
        self._stack: list[list] = []
        self._op = ""
        self._cache: dict[int, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        depth = len(self._stack)
        if 1 <= depth <= 2:
            self.records.append([self._op, depth - 1, name, start, end])

    def begin_op(self, name: str) -> None:
        self._op = name
        self._cache.clear()
        self.enter("bench.op")

    def end_op(self) -> None:
        self.exit()
        self.counts["sequences.cache_entries"] += sum(self._cache.values())

    def note_cache(self, seq) -> None:
        key = id(seq)
        self._cache[key] = max(self._cache.get(key, 0), len(seq.cache))


def _span(rec: Recorder, target: str, span: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.hits[target] += 1
        rec.enter(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _counted_cuts(rec: Recorder, target: str, fn):
    """Generator wrapper: time spent producing each cut is a graphs span,
    time the consumer spends on it belongs to the consumer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.hits[target] += 1
        cuts = fn(*args, **kwargs)
        while True:
            rec.enter("graphs.cuts")
            try:
                cut = next(cuts)
            except StopIteration:
                return
            finally:
                rec.exit()
            rec.counts["graphs.cuts_enumerated"] += 1
            yield cut

    return wrapper


def _after_scenario(rec, args, kwargs, code):
    out_dir = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else "."))
    if out_dir.is_dir():
        rec.counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())


def _after_run(rec, args, kwargs, traj):
    rec.counts["engine.steps"] += traj.steps


def _after_hk(rec, args, kwargs, out):
    rec.counts["opinions.hk_steps"] += out[0].steps


def _after_solve(rec, args, kwargs, result):
    rec.counts["solvers.iterations"] += result.iterations


def _after_validate(rec, args, kwargs, out):
    rec.counts["matrices.validations"] += 1


def _after_lookup(rec, args, kwargs, out):
    rec.counts["sequences.lookups"] += 1
    rec.note_cache(args[0])


def _after_export(rec, args, kwargs, out):
    traj = args[0]
    arrays = (traj.states, traj.residuals, traj.M, traj.m, traj.d, traj.window_max)
    rec.counts["engine.trajectory_bytes"] += sum(a.nbytes for a in arrays if a is not None)


# (module, function, span name, counter hook)
FUNCTIONS = (
    ("raikit.cli", "run_scenario", "cli.run", _after_scenario),
    ("raikit.matrices", "check_sia", "matrices.analysis", None),
    ("raikit.matrices", "is_primitive", "matrices.analysis", None),
    ("raikit.matrices", "spectral_radius", "matrices.analysis", None),
    ("raikit.matrices", "schur_stability_by_reachability", "matrices.analysis", None),
    ("raikit.sequences", "gossip_sequence", "sequences.build", None),
    ("raikit.sequences", "persistent_graph", "sequences.check", None),
    ("raikit.sequences", "check_reciprocity", "sequences.check", None),
    ("raikit.sequences", "check_uniform_cut_balance", "sequences.check", None),
    ("raikit.sequences", "check_arc_balance", "sequences.check", None),
    ("raikit.graphs", "strong_components", "graphs.scc", None),
    ("raikit.graphs", "is_aperiodic", "graphs.aperiodic", None),
    ("raikit.graphs", "cut_balance_certificate", "graphs.certificate", None),
    ("raikit.engine", "run_rai", "engine.run", _after_run),
    ("raikit.engine", "run_delayed_rai", "engine.run", _after_run),
    ("raikit.engine", "classify", "engine.classify", None),
    ("raikit.opinions", "run_hk", "opinions.hk", _after_hk),
    ("raikit.opinions", "run_altafini", "opinions.altafini", None),
    ("raikit.opinions", "modulus_consensus_verdict", "opinions.analysis", None),
    ("raikit.opinions", "recover_structural_balance", "opinions.analysis", None),
    ("raikit.solvers", "solve", "solvers.solve", _after_solve),
)

# (module, class, method, span name, counter hook)
METHODS = (
    ("raikit.matrices", "RowStochasticMatrix", "__post_init__", "matrices.validate", _after_validate),
    ("raikit.matrices", "SubstochasticMatrix", "__post_init__", "matrices.validate", _after_validate),
    ("raikit.sequences", "MatrixSequence", "matrix", "sequences.lookup", _after_lookup),
    ("raikit.engine", "Trajectory", "to_csv", "engine.export", _after_export),
    ("raikit.solvers", "SolveResult", "history_csv", "solvers.history_export", None),
)

TARGETS = tuple(f"{m}.{f}" for m, f, _, _ in FUNCTIONS) + (
    "raikit.graphs.all_cuts",
) + tuple(f"{m}.{c}.{f}" for m, c, f, _, _ in METHODS)


def _raikit_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "raikit" or name.startswith("raikit.")]


class Tracer:
    """Installs and removes the wrappers around one ``Recorder``."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._patched: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _raikit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracing wrappers are already installed")
        import raikit  # noqa: F401  (all layer modules load with the package)

        for mod, fn, span, after in FUNCTIONS:
            original = getattr(sys.modules[mod], fn)
            self._replace_everywhere(original, _span(self.rec, f"{mod}.{fn}", span, original, after))
        original = sys.modules["raikit.graphs"].all_cuts
        self._replace_everywhere(original, _counted_cuts(self.rec, "raikit.graphs.all_cuts", original))
        for mod, cls_name, meth, span, after in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, _span(self.rec, f"{mod}.{cls_name}.{meth}", span, original, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall_s`` seconds."""
    s = rec.self_s
    c = rec.counts

    def layer(name: str) -> float:
        return sum(v for k, v in s.items() if k.startswith(name + "."))

    def per(total: float, count: float, scale: float) -> float:
        return total / count * scale if count else 0.0

    validations = c["matrices.validations"]
    steps = c["engine.steps"]
    iterations = c["solvers.iterations"]
    unattributed = layer("bench")
    m = {
        "cli.self_s": layer("cli"),
        "cli.artifact_bytes": c["cli.artifact_bytes"],
        "matrices.self_s": layer("matrices"),
        "matrices.validations": validations,
        "matrices.validate_s": s["matrices.validate"],
        "matrices.validate_us": per(s["matrices.validate"], validations, 1e6),
        "sequences.self_s": layer("sequences"),
        "sequences.lookups": c["sequences.lookups"],
        "sequences.lookup_s": s["sequences.lookup"],
        "sequences.cache_entries": c["sequences.cache_entries"],
        "sequences.check_s": s["sequences.check"],
        "graphs.self_s": layer("graphs"),
        "graphs.cuts_enumerated": c["graphs.cuts_enumerated"],
        "graphs.certificate_s": s["graphs.certificate"],
        "graphs.scc_s": s["graphs.scc"],
        "engine.self_s": layer("engine"),
        "engine.steps": steps,
        "engine.run_s": s["engine.run"],
        "engine.step_us": per(s["engine.run"], steps, 1e6),
        "engine.classify_s": s["engine.classify"],
        "engine.export_s": s["engine.export"],
        "engine.trajectory_mb": c["engine.trajectory_bytes"] / 1e6,
        "opinions.self_s": layer("opinions"),
        "opinions.hk_steps": c["opinions.hk_steps"],
        "opinions.hk_s": s["opinions.hk"],
        "opinions.altafini_s": s["opinions.altafini"],
        "solvers.self_s": layer("solvers"),
        "solvers.iterations": iterations,
        "solvers.solve_s": s["solvers.solve"],
        "solvers.iter_us": per(s["solvers.solve"], iterations, 1e6),
        "solvers.history_export_s": s["solvers.history_export"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall_s if wall_s else 0.0,
    }
    return m


def accounted_s(rec: Recorder) -> float:
    """Layer self times plus the unattributed time: the pass's wall time
    when every span was closed and counted exactly once."""
    return sum(v for k, v in rec.self_s.items() if k.split(".")[0] in LAYERS + ("bench",))
