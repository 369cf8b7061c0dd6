"""AST-based static rules (SL001-SL007) for the simulator sources.

The rules encode conventions the kernel and the observability layer rely
on but cannot enforce at runtime for free:

- SL001 — sim-process *yield discipline*: generators driven by
  :mod:`repro.sim.process` may only yield delays (numbers), SimEvents or
  Processes.  Yielding a string/list/dict is a latent ``TypeError`` that
  only fires when that code path runs.
- SL002/SL003/SL004/SL005 — *determinism*: no wall-clock reads, no
  unseeded RNG draws, no ``id()`` in simulation logic, no iteration over
  unordered collections on scheduling-adjacent paths.  Each of these
  makes two runs of the "same" experiment silently diverge.
- SL006 — *tracer guard*: ``add_span`` must sit behind
  ``tracer.enabled`` so disabled tracing stays zero-cost
  (``tracer.count`` is exempt by design: counters are always on).
- SL007 — *timing-constant hygiene*: latency and size literals belong in
  ``params``/``profiles`` modules where calibration can see them, never
  inline at protocol call sites.

Scoping is by path relative to the lint root (normally the ``repro``
package directory): determinism and yield rules apply to the simulation
packages, timing hygiene only to protocol code, and definition sites
(``sim/trace.py``, ``params.py``/``profiles.py``) are exempt from the
rules they implement.

Suppression: append ``# simlint: disable=SL005`` (or a comma-separated
list, or no ``=`` part to disable every rule) to the offending line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional

from repro.tools.simlint.findings import Finding

# ----------------------------------------------------------------------
# Scope configuration (paths are POSIX-relative to the lint root)
# ----------------------------------------------------------------------
#: Packages whose code runs inside the simulation (determinism rules).
SIM_SCOPE_PREFIXES = (
    "sim/", "collectives/", "myrinet/", "quadrics/", "network/",
    "pci/", "host/", "cluster/", "mpi/", "topology/", "model/",
)
#: Protocol packages where timing/size literals are banned (SL007).
TIMING_SCOPE_PREFIXES = (
    "collectives/", "myrinet/", "quadrics/", "network/", "pci/",
    "host/", "mpi/",
)
#: Files that *define* the constants / tracer and are exempt from the
#: rules they implement.
PARAM_BASENAMES = {"params.py", "profiles.py"}
TRACER_DEFINITION = "sim/trace.py"

WALL_CLOCK_FNS = {
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
}
DATETIME_NOW_FNS = {"now", "utcnow", "today"}
RNG_DRAW_FNS = {
    "random", "randint", "uniform", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes", "seed",
}
TRACER_GUARDED_METHODS = {"add_span"}
#: Call receivers considered "a tracer" for SL006.
_TRACER_NAME = "tracer"
#: Methods whose literal arguments are timing/size constants (SL007).
TIMED_CALL_METHODS = {
    "cpu_task", "compute", "dma", "dma_async", "pio_write",
    "schedule", "schedule_detached",
}
SIZE_KWARGS = {"size_bytes", "nbytes"}
#: Calls that hand work to the scheduler (SL005 dict-iteration trigger).
SCHEDULING_CALL_NAMES = {
    "schedule", "schedule_detached", "transmit", "broadcast", "put",
    "post", "post_item", "succeed", "fail", "set_event", "issue_rdma",
    "fast_inject", "send_nack", "post_send_event", "post_engine_command",
    "enqueue_send_token", "process", "arm", "request",
}

_SUPPRESS_RE = re.compile(r"#\s*simlint\s*:\s*disable(?:\s*=\s*([A-Za-z0-9_,\s]+))?")


def _starts_with(relpath: str, prefixes: Iterable[str]) -> bool:
    return any(relpath.startswith(p) for p in prefixes)


def in_sim_scope(relpath: str) -> bool:
    return _starts_with(relpath, SIM_SCOPE_PREFIXES)


def in_timing_scope(relpath: str) -> bool:
    return (
        _starts_with(relpath, TIMING_SCOPE_PREFIXES)
        and Path(relpath).name not in PARAM_BASENAMES
    )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _is_nonzero_number(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value != 0
    )


def _call_method_name(call: ast.Call) -> Optional[str]:
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr
    if isinstance(f, ast.Name):
        return f.id
    return None


def _stmt_lists(node: ast.AST):
    for field in ("body", "orelse", "finalbody"):
        stmts = getattr(node, field, None)
        if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
            yield stmts


def _own_nodes(fn: ast.AST):
    """Walk a function's nodes without descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# SL001 — yield discipline
# ----------------------------------------------------------------------
_BAD_YIELD_DISPLAYS = (
    ast.List, ast.Dict, ast.Set, ast.Tuple,
    ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
    ast.JoinedStr,
)


def _check_yield_discipline(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    # A bare `yield` directly after `return` is the documented idiom for
    # turning a non-suspending handler into a generator; allow it.
    allowed_bare: set[int] = set()
    for node in ast.walk(tree):
        for stmts in _stmt_lists(node):
            for prev, cur in zip(stmts, stmts[1:]):
                if (
                    isinstance(prev, ast.Return)
                    and isinstance(cur, ast.Expr)
                    and isinstance(cur.value, ast.Yield)
                ):
                    allowed_bare.add(id(cur.value))

    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in _own_nodes(node):
            if not isinstance(sub, ast.Yield):
                continue
            value = sub.value
            bad: Optional[str] = None
            if value is None or (
                isinstance(value, ast.Constant) and value.value is None
            ):
                if id(sub) not in allowed_bare:
                    bad = "a bare `yield` (resumes with no delay semantics)"
            elif isinstance(value, ast.Constant):
                if isinstance(value.value, bool):
                    bad = f"the bool literal {value.value!r}"
                elif isinstance(value.value, (str, bytes)):
                    bad = f"the {type(value.value).__name__} literal {value.value!r}"
                elif value.value is Ellipsis:
                    bad = "`...`"
            elif isinstance(value, _BAD_YIELD_DISPLAYS):
                bad = f"a {type(value).__name__} display"
            if bad is not None:
                out.append(Finding(
                    "SL001", relpath, sub.lineno,
                    f"generator {node.name!r} yields {bad}; the kernel only "
                    "accepts delays (numbers), SimEvents, or Processes",
                    fixit="yield a delay, a SimEvent, or a Process; for "
                          "generator-marker yields place `yield` directly "
                          "after `return`",
                ))


# ----------------------------------------------------------------------
# SL002/SL003 — wall clock and unseeded RNG (import-aware)
# ----------------------------------------------------------------------
def _collect_imports(tree: ast.AST):
    time_mods: set[str] = set()
    time_fns: set[str] = set()
    dt_mods: set[str] = set()
    dt_classes: set[str] = set()
    random_mods: set[str] = set()
    random_fns: set[str] = set()
    numpy_mods: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "time":
                    time_mods.add(local)
                elif alias.name == "datetime":
                    dt_mods.add(local)
                elif alias.name == "random":
                    random_mods.add(local)
                elif alias.name.split(".")[0] == "numpy":
                    numpy_mods.add(local)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "time" and alias.name in WALL_CLOCK_FNS:
                    time_fns.add(local)
                elif node.module == "datetime" and alias.name in ("datetime", "date"):
                    dt_classes.add(local)
                elif node.module == "random" and alias.name in RNG_DRAW_FNS:
                    random_fns.add(local)
                elif node.module == "numpy" and alias.name == "random":
                    numpy_mods.add(f"{local}#module")  # numpy.random imported directly
    return (time_mods, time_fns, dt_mods, dt_classes,
            random_mods, random_fns, numpy_mods)


def _check_determinism_calls(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    (time_mods, time_fns, dt_mods, dt_classes,
     random_mods, random_fns, numpy_mods) = _collect_imports(tree)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        # -- SL002: time.* / datetime.now --------------------------------
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in time_mods
            and f.attr in WALL_CLOCK_FNS
        ):
            out.append(Finding(
                "SL002", relpath, node.lineno,
                f"wall-clock read `{f.value.id}.{f.attr}()` in simulation code",
                fixit="use sim.now (simulated time); wall-clock timing belongs "
                      "in tools/ or experiments/ harness code",
            ))
        elif isinstance(f, ast.Name) and f.id in time_fns:
            out.append(Finding(
                "SL002", relpath, node.lineno,
                f"wall-clock read `{f.id}()` in simulation code",
                fixit="use sim.now (simulated time)",
            ))
        elif (
            isinstance(f, ast.Attribute)
            and f.attr in DATETIME_NOW_FNS
            and (
                (isinstance(f.value, ast.Name) and f.value.id in dt_classes)
                or (
                    isinstance(f.value, ast.Attribute)
                    and f.value.attr in ("datetime", "date")
                    and isinstance(f.value.value, ast.Name)
                    and f.value.value.id in dt_mods
                )
            )
        ):
            out.append(Finding(
                "SL002", relpath, node.lineno,
                "wall-clock datetime read in simulation code",
                fixit="derive timestamps from sim.now",
            ))

        # -- SL003: module-global random draws ---------------------------
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in random_mods
        ):
            if f.attr in RNG_DRAW_FNS:
                out.append(Finding(
                    "SL003", relpath, node.lineno,
                    f"draw from the unseeded module-global RNG "
                    f"`{f.value.id}.{f.attr}()`",
                    fixit="draw from a DeterministicRng substream "
                          "(repro.sim.rng) derived from the experiment seed",
                ))
            elif f.attr == "Random" and not node.args and not node.keywords:
                out.append(Finding(
                    "SL003", relpath, node.lineno,
                    "`random.Random()` without a seed",
                    fixit="seed it, or use DeterministicRng substreams",
                ))
        elif isinstance(f, ast.Name) and f.id in random_fns:
            out.append(Finding(
                "SL003", relpath, node.lineno,
                f"draw from the unseeded module-global RNG `{f.id}()`",
                fixit="draw from a DeterministicRng substream",
            ))
        elif (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "random"
            and isinstance(f.value.value, ast.Name)
            and f.value.value.id in numpy_mods
            and not (f.attr == "default_rng" and (node.args or node.keywords))
        ):
            out.append(Finding(
                "SL003", relpath, node.lineno,
                f"draw from numpy's global RNG `{f.value.value.id}.random."
                f"{f.attr}()`",
                fixit="use a seeded Generator (np.random.default_rng(seed)) "
                      "or DeterministicRng",
            ))


# ----------------------------------------------------------------------
# SL004 — id() ordering
# ----------------------------------------------------------------------
def _check_id_usage(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    repr_nodes: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("__repr__", "__str__")
        ):
            for sub in ast.walk(node):
                repr_nodes.add(id(sub))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and id(node) not in repr_nodes
        ):
            out.append(Finding(
                "SL004", relpath, node.lineno,
                "`id()` is allocation-order dependent and must not feed "
                "simulation logic",
                fixit="key on stable identifiers (node_id, seq, name) instead",
            ))


# ----------------------------------------------------------------------
# SL005 — unordered iteration
# ----------------------------------------------------------------------
_SET_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
_DICT_NAMES = {"dict", "Dict", "defaultdict", "DefaultDict", "Counter", "OrderedDict"}


def _kind_from_value(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call):
        name = _call_method_name(node)
        if name in ("set", "frozenset"):
            return "set"
        if name in ("dict", "defaultdict", "Counter", "OrderedDict"):
            return "dict"
    return None


def _kind_from_annotation(ann: Optional[ast.AST]) -> Optional[str]:
    if ann is None:
        return None
    base = ann
    if isinstance(base, ast.Subscript):
        base = base.value
    name = None
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    if name in _SET_NAMES:
        return "set"
    if name in _DICT_NAMES:
        return "dict"
    return None


class _CollectionTable:
    """Module-wide best-effort name → collection-kind inference."""

    def __init__(self, tree: ast.AST):
        self.names: dict[str, Optional[str]] = {}
        self.attrs: dict[str, Optional[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                kind = _kind_from_value(node.value)
                for target in node.targets:
                    self._record(target, kind)
            elif isinstance(node, ast.AnnAssign):
                kind = _kind_from_annotation(node.annotation)
                if kind is None and node.value is not None:
                    kind = _kind_from_value(node.value)
                self._record(node.target, kind)
            elif isinstance(node, ast.arg):
                kind = _kind_from_annotation(node.annotation)
                if kind is not None:
                    self._merge(self.names, node.arg, kind)

    def _record(self, target: ast.AST, kind: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self._merge(self.names, target.id, kind)
        elif isinstance(target, ast.Attribute):
            self._merge(self.attrs, target.attr, kind)

    @staticmethod
    def _merge(table: dict, key: str, kind: Optional[str]) -> None:
        if key in table and table[key] != kind:
            table[key] = None  # conflicting evidence: unknown
        else:
            table[key] = kind

    def kind_of(self, expr: ast.AST) -> Optional[str]:
        direct = _kind_from_value(expr)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Name):
            return self.names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attrs.get(expr.attr)
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("keys", "values", "items")
        ):
            if self.kind_of(expr.func.value) == "dict":
                return "dict"
        return None


def _body_schedules(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if (
            isinstance(node, ast.Call)
            and _call_method_name(node) in SCHEDULING_CALL_NAMES
        ):
            return True
    return False


def _check_unordered_iteration(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    table = _CollectionTable(tree)

    def flag(node: ast.AST, what: str) -> None:
        out.append(Finding(
            "SL005", relpath, node.lineno,
            f"iteration over {what}; the visit order is not part of the "
            "simulation's deterministic state",
            fixit="iterate `sorted(...)` (or another deterministic order) "
                  "before scheduling work from it",
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            kind = table.kind_of(node.iter)
            if kind == "set":
                flag(node, "a set")
            elif kind == "dict" and _body_schedules(node):
                flag(node, "a dict whose loop body schedules simulation work")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if table.kind_of(gen.iter) == "set":
                    flag(node, "a set (inside a comprehension)")


# ----------------------------------------------------------------------
# SL006 — tracer guard
# ----------------------------------------------------------------------
def _contains_enabled(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id == "enabled":
            return True
    return False


def _is_guarded_tracer_call(call: ast.Call) -> bool:
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr in TRACER_GUARDED_METHODS):
        return False
    recv = f.value
    if isinstance(recv, ast.Name) and _TRACER_NAME in recv.id.lower():
        return True
    if isinstance(recv, ast.Attribute) and _TRACER_NAME in recv.attr.lower():
        return True
    return False


def _check_tracer_guard(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    def walk(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call) and _is_guarded_tracer_call(node) and not guarded:
            method = node.func.attr  # type: ignore[union-attr]
            out.append(Finding(
                "SL006", relpath, node.lineno,
                f"`tracer.{method}(...)` outside the `tracer.enabled` guard "
                "(tracing must be zero-cost when disabled)",
                fixit="wrap the call in `if tracer.enabled:`",
            ))
        if isinstance(node, ast.If):
            inner = guarded or _contains_enabled(node.test)
            walk(node.test, guarded)
            for stmt in node.body:
                walk(stmt, inner)
            for stmt in node.orelse:
                walk(stmt, guarded)
            return
        if isinstance(node, ast.IfExp):
            inner = guarded or _contains_enabled(node.test)
            walk(node.test, guarded)
            walk(node.body, inner)
            walk(node.orelse, guarded)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            inner = guarded
            for value in node.values:
                walk(value, inner)
                if _contains_enabled(value):
                    inner = True
            return
        for child in ast.iter_child_nodes(node):
            walk(child, guarded)

    walk(tree, False)


# ----------------------------------------------------------------------
# SL007 — timing-constant hygiene
# ----------------------------------------------------------------------
def _check_timing_literals(tree: ast.AST, relpath: str, out: list[Finding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and node.value is not None:
            if _is_nonzero_number(node.value):
                out.append(Finding(
                    "SL007", relpath, node.value.lineno,
                    f"inline delay literal `yield {node.value.value!r}` in "
                    "protocol code",
                    fixit="name the constant in the profile's params dataclass "
                          "and yield the attribute",
                ))
            continue
        if not isinstance(node, ast.Call):
            continue
        method = _call_method_name(node)
        if method in TIMED_CALL_METHODS:
            if node.args and _is_nonzero_number(node.args[0]):
                out.append(Finding(
                    "SL007", relpath, node.lineno,
                    f"inline literal `{node.args[0].value!r}` as the "
                    f"cost/size argument of `{method}(...)`",
                    fixit="move the constant into the params dataclass "
                          "(myrinet/quadrics/pci/host params)",
                ))
        elif method == "Timeout":
            delay = node.args[1] if len(node.args) > 1 else None
            if delay is not None and _is_nonzero_number(delay):
                out.append(Finding(
                    "SL007", relpath, node.lineno,
                    f"inline literal `{delay.value!r}` as a Timeout delay",
                    fixit="move the constant into the params dataclass",
                ))
        for kw in node.keywords:
            if kw.arg in SIZE_KWARGS and _is_nonzero_number(kw.value):
                out.append(Finding(
                    "SL007", relpath, node.lineno,
                    f"inline literal `{kw.arg}={kw.value.value!r}`",
                    fixit="take the size from the profile's params dataclass",
                ))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _suppressions(source: str) -> dict[int, Optional[set[str]]]:
    """Map line number → suppressed codes (None = every code)."""
    supp: dict[int, Optional[set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        if m.group(1) is None:
            supp[lineno] = None
        else:
            codes = {c.strip().upper() for c in m.group(1).split(",") if c.strip()}
            supp[lineno] = codes
    return supp


def analyze_source(source: str, relpath: str) -> list[Finding]:
    """Run every static rule that applies to ``relpath`` over ``source``."""
    tree = ast.parse(source, filename=relpath)
    findings: list[Finding] = []

    if in_sim_scope(relpath):
        _check_yield_discipline(tree, relpath, findings)
        _check_determinism_calls(tree, relpath, findings)
        _check_id_usage(tree, relpath, findings)
        _check_unordered_iteration(tree, relpath, findings)
        if relpath != TRACER_DEFINITION:
            _check_tracer_guard(tree, relpath, findings)
    if in_timing_scope(relpath):
        _check_timing_literals(tree, relpath, findings)

    supp = _suppressions(source)
    if supp:
        kept = []
        for finding in findings:
            codes = supp.get(finding.line, ...)
            if codes is ... or (codes is not None and finding.code not in codes):
                kept.append(finding)
        findings = kept
    return sorted(findings, key=Finding.sort_key)


def analyze_file(path: Path, root: Path) -> list[Finding]:
    relpath = path.relative_to(root).as_posix()
    return analyze_source(path.read_text(), relpath)
