"""The determinism rule set: AST checks for determinism hazards (D001–D006).

Each rule is a function over one :class:`~repro.analysis.walk.ModuleWalk`
(the single traversal the fact pass makes of each parsed file) that
yields :class:`Violation` objects; :func:`check` runs them all.  The fact
pass (:func:`repro.analysis.contracts.facts.extract_facts`) caches the
violations; the project rules turn them into findings, apply pragmas,
and report.  The rules' titles and fix hints live in
:data:`repro.analysis.contracts.rules.RULE_TABLE`.

The rules are deliberately *syntactic*: no type inference, no cross-file
analysis.  That keeps them fast, dependency-free (stdlib ``ast`` only),
and predictable — a finding always points at a concrete expression the
author can either fix or suppress with an inline justification::

    _CACHE = {}  # detlint: ignore[D001] — read-only after import

Rule summary
------------
====  =========================================================
D001  module-level mutable state used as an id/sequence factory
D002  wall-clock access inside simulation code
D003  unseeded randomness bypassing ``sim.rng.RngRegistry``
D004  iteration over a ``set`` (order feeds downstream behaviour)
D005  ``id()``/``hash()`` of an object used as an ordering key
D006  process fan-out bypassing ``repro.scale.WorldRunner``
====  =========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.walk import ModuleWalk, Order, call_terminal

__all__ = ["Violation", "check"]


@dataclass(frozen=True)
class Violation:
    """One raw rule hit, before pragma suppression is applied."""

    code: str
    line: int
    col: int
    message: str


def _hit(code: str, node: ast.AST, message: str) -> Violation:
    return Violation(code=code, line=node.lineno, col=node.col_offset,
                     message=message)


# -- D001 ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
})

_COUNTERISH_FRAGMENTS = ("count", "counter", "sequencer", "idgen",
                         "idfactory")


def _module_body_assigns(module: ast.Module) -> Iterator[
        tuple[str, ast.stmt, ast.expr]]:
    """(name, stmt, value) for every simple module-level assignment."""
    for stmt in module.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            yield stmt.targets[0].id, stmt, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            yield stmt.target.id, stmt, stmt.value


def _is_mutable_literal(value: ast.expr, walk: ModuleWalk) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call) and not value.args and not value.keywords:
        name = walk.resolve(value.func)
        if name is None and isinstance(value.func, ast.Name):
            name = value.func.id
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _first_line(hits: list[tuple[Order, Order, int]]) -> Optional[int]:
    """Line of the first hit: outermost function first, then tree order."""
    return min(hits)[2] if hits else None


def module_state_factory(walk: ModuleWalk) -> Iterator[Violation]:
    """D001: module-level mutable state used as an id/sequence factory.

    Three shapes are recognised:

    1. ``_ids = itertools.count(...)`` at module scope;
    2. a module-level integer rebound through ``global`` (a bare counter);
    3. a module-level dict/list/set (or counter-ish constructor call)
       mutated in place from function bodies (a runtime cache/registry).

    All three make identifier allocation a function of *process history*
    instead of the owning world, so two same-seed worlds in one process
    diverge.
    """
    for name, stmt, value in _module_body_assigns(walk.tree):
        if isinstance(value, ast.Call):
            if walk.resolve(value.func) == "itertools.count":
                yield _hit("D001", stmt,
                           f"module-level itertools.count bound to "
                           f"{name!r}: ids become process-ordered, not "
                           f"world-ordered")
                continue
            terminal = call_terminal(value)
            if terminal and any(f in terminal.lower()
                                for f in _COUNTERISH_FRAGMENTS) \
                    and not _is_mutable_literal(value, walk):
                yield _hit("D001", stmt,
                           f"module-level sequence factory {terminal}() "
                           f"bound to {name!r}")
                continue
        if isinstance(value, ast.Constant) and isinstance(value.value, int) \
                and not isinstance(value.value, bool):
            line = _first_line([hit for hit in walk.rebinds.get(name, ())
                                if (hit[0], name) in walk.globals])
            if line is not None:
                yield _hit("D001", stmt,
                           f"module-level bare counter {name!r} rebound "
                           f"via 'global' at line {line}")
            continue
        if _is_mutable_literal(value, walk):
            line = _first_line(walk.mutations.get(name, []))
            if line is not None:
                yield _hit("D001", stmt,
                           f"module-level mutable {name!r} mutated at "
                           f"runtime (e.g. line {line}): shared across "
                           f"worlds in one process")


# -- D002 ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def wall_clock_access(walk: ModuleWalk) -> Iterator[Violation]:
    """D002: wall-clock reads inside sim code.

    Simulated components must read :attr:`Simulator.now`; wall-clock time
    differs between runs by construction and poisons every downstream
    artifact (traces, ids, timeouts).
    """
    for site in walk.calls:
        if site.target in _WALL_CLOCK_CALLS:
            yield _hit("D002", site.node,
                       f"wall-clock call {site.target}() is "
                       f"nondeterministic across runs")


# -- D003 ----------------------------------------------------------------------

_NUMPY_RANDOM_ALLOWED = frozenset({
    "numpy.random.Generator", "numpy.random.BitGenerator",
})

#: Constructors that are deterministic only when given a seed.
_NUMPY_SEEDED = frozenset({
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.Philox",
})

#: Keywords that carry the seed (``Philox(key=...)`` seeds through key);
#: ``None`` stands for a ``**mapping`` that may carry one.
_SEED_KEYWORDS = (None, "seed", "entropy", "key")


def _unseeded(call: ast.Call) -> bool:
    """No seed argument, or only literal ``None`` ones."""
    seeds = [*call.args[:1], *(kw.value for kw in call.keywords
                               if kw.arg in _SEED_KEYWORDS)]
    return all(isinstance(s, ast.Constant) and s.value is None
               for s in seeds)


def unseeded_randomness(walk: ModuleWalk) -> Iterator[Violation]:
    """D003: randomness drawn from process-global RNG state.

    ``random.*`` and ``numpy.random.<fn>`` (module-level legacy API) share
    one hidden global generator per process; two same-seed worlds
    interleave their draws.  A numpy generator or seed sequence built
    without a seed draws fresh OS entropy, so no two runs agree.  Named
    streams from :class:`repro.sim.rng.RngRegistry` — or an explicitly
    seeded ``numpy.random.default_rng(seed)`` — are the sanctioned
    sources.
    """
    for site in walk.calls:
        resolved = site.target
        if resolved is None:
            continue
        if resolved.startswith("random."):
            yield _hit("D003", site.node,
                       f"{resolved}() draws from the process-global "
                       f"stdlib RNG")
        elif resolved in _NUMPY_SEEDED:
            if _unseeded(site.node):
                yield _hit("D003", site.node,
                           f"{resolved}() without a seed draws fresh OS "
                           f"entropy")
        elif resolved.startswith("numpy.random.") \
                and resolved not in _NUMPY_RANDOM_ALLOWED:
            yield _hit("D003", site.node,
                       f"{resolved}() uses numpy's process-global "
                       f"legacy RNG")


# -- D004 ----------------------------------------------------------------------


def _is_set_expr(node: ast.expr, walk: ModuleWalk,
                 set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = walk.resolve(node.func)
        if name is None and isinstance(node.func, ast.Name):
            name = node.func.id
        return name in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.Sub)):
        # a | b etc. where either side is provably a set
        return _is_set_expr(node.left, walk, set_names) \
            or _is_set_expr(node.right, walk, set_names)
    return False


def set_order_iteration(walk: ModuleWalk) -> Iterator[Violation]:
    """D004: iterating a ``set`` — order is hash-seed/process dependent.

    Set iteration order is not part of the determinism contract; when it
    feeds scheduling, message emission, or any serialized artifact it
    silently couples behaviour to ``PYTHONHASHSEED`` and allocation
    history.  Sort first (``sorted(s)``) or keep an ordered container.

    A name bound to a set expression anywhere in a scope is a set
    throughout it.  Bindings are read in reverse source order, so
    ``b = a`` taints ``b`` only when a set binding of ``a`` comes later.
    """
    seen: set[tuple[int, int]] = set()
    for scope in walk.scopes:
        set_names: set[str] = set()
        for node in reversed(scope.assigns):
            if _is_set_expr(node.value, walk, set_names):
                set_names.update(tgt.id for tgt in node.targets
                                 if isinstance(tgt, ast.Name))
        for it in scope.iters:
            key = (it.lineno, it.col_offset)
            if key not in seen and _is_set_expr(it, walk, set_names):
                seen.add(key)
                yield _hit("D004", it,
                           "iteration order over a set is nondeterministic")


# -- D005 ----------------------------------------------------------------------

_ORDERING_CALLS = frozenset({"sorted", "min", "max"})


def identity_ordering(walk: ModuleWalk) -> Iterator[Violation]:
    """D005: ``id()``/``hash()`` of an object used as an ordering key.

    ``id()`` is an address — different every run; ``hash()`` of most
    objects is derived from it (or salted).  Using either as a sort or
    tie-break key makes ordering a function of the allocator, not the
    world.  Use an explicit sequence number (``sim.ids``) instead.
    """
    for site in walk.calls:
        func = site.node.func
        if not ((isinstance(func, ast.Name) and func.id in _ORDERING_CALLS)
                or (isinstance(func, ast.Attribute) and func.attr == "sort")):
            continue
        for kw in site.node.keywords:
            if kw.arg != "key":
                continue
            if isinstance(kw.value, ast.Name) \
                    and kw.value.id in ("id", "hash"):
                yield _hit("D005", site.node,
                           f"ordering key is builtin {kw.value.id} — "
                           f"address-dependent")
            elif isinstance(kw.value, ast.Lambda):
                calls = walk.identity_calls[id(kw.value)]
                if calls:
                    yield _hit("D005", site.node,
                               f"ordering key calls {min(calls)[1]}() — "
                               f"address-dependent")


# -- D006 ----------------------------------------------------------------------

_PROCESS_SPAWN_CALLS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.Process",
    "multiprocessing.Manager",
    "multiprocessing.Queue",
    "multiprocessing.Pipe",
    "multiprocessing.get_context",
    "os.fork",
})


def process_fanout(walk: ModuleWalk) -> Iterator[Violation]:
    """D006: process-pool primitives outside :class:`WorldRunner`.

    A raw pool reintroduces everything the determinism contract forbids:
    completion-order result collection, inherited global state, and
    unhashed per-world outputs.  :class:`repro.scale.WorldRunner` is the
    one audited call site — it pins the start method, returns results in
    spec order, and decision-hashes every world so serial/parallel
    equivalence stays checkable.  Its own pool lines carry the pragma;
    everywhere else the import or call is a finding.
    """
    for _, node in walk.imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multiprocessing":
                    yield _hit("D006", node,
                               f"import of {alias.name!r}: spawn processes "
                               f"via repro.scale.WorldRunner")
        elif node.module and node.level == 0 \
                and node.module.split(".")[0] == "multiprocessing":
            yield _hit("D006", node,
                       f"import from {node.module!r}: spawn processes via "
                       f"repro.scale.WorldRunner")
    for site in walk.calls:
        if site.target in _PROCESS_SPAWN_CALLS:
            yield _hit("D006", site.node,
                       f"{site.target}() spawns worker processes outside "
                       f"the sanctioned WorldRunner")


_RULES = (module_state_factory, wall_clock_access, unseeded_randomness,
          set_order_iteration, identity_ordering, process_fanout)


def check(walk: ModuleWalk) -> list[Violation]:
    """Every D-rule over one walked module; violations in (line, col,
    code) order."""
    out = [v for rule in _RULES for v in rule(walk)]
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out
