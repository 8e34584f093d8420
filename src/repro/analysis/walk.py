"""One walk per module: the node lists every analyzer rule reads.

:class:`ModuleWalk` visits each node of a parsed file once, carrying
where it sits (class/def path, D004 scope, outermost function, loop,
except handlers), and files imports, calls, loops, assignments,
``global`` declarations, mutations, classes, defs, returns, string
constants and statement spans.  The D-rules (:mod:`repro.analysis.rules`)
and the fact extractors (:mod:`repro.analysis.contracts.facts`) read
those lists; none re-walks the tree.

Facts keep :func:`ast.walk` (breadth-first) order: each site carries its
:data:`Order`, ``(depth, preorder index)``, and breadth-first visits the
nodes of one depth in preorder.  A def's decorators belong to the scope
around it; its arguments (defaults, annotations) belong to the def.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

__all__ = ["ModuleWalk", "Order", "call_terminal"]

#: ``(depth, preorder index)`` of a node: sorting by it gives ast.walk order.
Order = tuple[int, int]

MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop", "popitem",
    "insert", "extend", "extendleft", "remove", "discard", "clear",
})

#: Accessors that consume a metric rather than emit to it:
#: ``registry.gauge("x").value`` is a read site, ``.set()`` an emission.
METRIC_READS = frozenset({"value", "mean", "summary", "quantile",
                          "percentiles"})

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_terminal(call: ast.Call) -> Optional[str]:
    """The terminal identifier of a call's callee (``pkg.Foo()`` -> Foo)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


@dataclass(eq=False)
class Def:
    """One def: its qualname and what its whole body binds and returns
    (nested defs included)."""

    qual: str
    #: ``name = value`` single-target assignments.
    assigns: list[tuple[str, ast.expr]] = field(default_factory=list)
    returns: list[ast.Return] = field(default_factory=list)


@dataclass(eq=False)
class CallSite:
    node: ast.Call
    order: Order
    owner: Optional[Def]        # innermost def; None at module/class level
    in_class: bool              # inside some class's bases or body
    target: Optional[str] = None    # import-resolved dotted callee


@dataclass(eq=False)
class ClassSite:
    node: ast.ClassDef
    order: Order
    #: (name, [(order, attr, line)]) per def directly in the class body:
    #: its in-place ``self.<attr>`` mutations, nested defs included.
    methods: list[tuple[str, list[tuple[Order, str, int]]]] = \
        field(default_factory=list)
    #: Every call in the class statement, decorators and bases included.
    calls: list[CallSite] = field(default_factory=list)


@dataclass(eq=False)
class Scope:
    """A D004 scope: the module or one def, minus nested defs and
    lambdas (a def's decorators and defaults are in the def's scope)."""

    assigns: list[ast.Assign] = field(default_factory=list)
    iters: list[ast.expr] = field(default_factory=list)


@dataclass(eq=False)
class LoopSite:
    node: ast.AST               # ast.For | ast.While
    order: Order
    qual: str
    #: except handlers of the try statements in the loop, not behind a
    #: nested loop or def.
    handlers: list[ast.ExceptHandler] = field(default_factory=list)


class _Context(NamedTuple):
    """Where a node sits; children share it unless a visitor replaces it."""

    prefix: str = ""
    defs: tuple[Def, ...] = ()          # enclosing defs, innermost last
    scope: Optional[Scope] = None       # None inside a lambda
    top: Optional[Order] = None         # the outermost def or lambda
    loop: Optional[LoopSite] = None
    handlers: tuple[int, ...] = ()      # ids of enclosing except handlers
    classes: tuple[ClassSite, ...] = ()
    in_class: bool = False
    methods: tuple[list, ...] = ()
    lambda_bodies: tuple[list, ...] = ()


class ModuleWalk:
    """Every node of one parsed module, visited once and filed by use.

    Mutations and rebinds of a bare name inside functions are keyed by
    that name, each hit ``(top, order, line)`` with ``top`` the
    :data:`Order` of the outermost def or lambda it sits in.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.imports: list[tuple[Order, ast.stmt]] = []
        self.calls: list[CallSite] = []
        self.loops: list[LoopSite] = []
        self.classes: list[ClassSite] = []
        self.defs: dict[int, Def] = {}                  # id(def node) ->
        self.scopes: list[Scope] = [Scope()]
        self.mutations: dict[str, list[tuple[Order, Order, int]]] = {}
        self.rebinds: dict[str, list[tuple[Order, Order, int]]] = {}
        self.globals: set[tuple[Order, str]] = set()    # (top, name)
        #: ids of except handlers with a raise/return/break (escaping) or
        #: a continue anywhere inside.
        self.escaping: set[int] = set()
        self.continuing: set[int] = set()
        #: id(lambda) -> the ``id()``/``hash()`` calls in its body.
        self.identity_calls: dict[int, list[tuple[Order, str]]] = {}
        self.read_wrapped: set[int] = set()     # id(call) read by accessor
        self.strings: dict[str, int] = {}
        self.load_subscripts: list[tuple[Order, str]] = []
        self.stmt_spans: list[tuple[Order, list[int]]] = []
        self._count = 0
        self._visit(tree, 0, _Context(scope=self.scopes[0]))

        for sites in (self.calls, self.loops, self.classes):
            sites.sort(key=lambda site: site.order)
        for cls in self.classes:
            cls.calls.sort(key=lambda site: site.order)
        for pairs in (self.imports, self.load_subscripts, self.stmt_spans):
            pairs.sort(key=lambda pair: pair[0])
        self.module_aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        for _, node in self.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or
                                        alias.name.split(".")[0]] = alias.name
            elif node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
        for site in self.calls:
            site.target = self.resolve(site.node.func)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain rooted in an
        import (``np.random.rand`` -> ``numpy.random.rand``); ``None``
        for local and attribute expressions."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts])
        if root in self.from_imports:
            return ".".join([self.from_imports[root], *parts])
        return None

    # -- the traversal ---------------------------------------------------------

    def _visit(self, node: ast.AST, depth: int, ctx: _Context) -> None:
        order = (depth, self._count)
        self._count += 1
        visitor = _VISITORS.get(type(node))
        if visitor is not None:
            ctx = visitor(self, node, order, ctx)
            if ctx is None:         # the visitor walked the children itself
                return
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth + 1, ctx)

    def _visit_FunctionDef(self, node, order, ctx):
        qual = f"{ctx.prefix}.{node.name}" if ctx.prefix else node.name
        fn = self.defs[id(node)] = Def(qual)
        self.scopes.append(Scope())
        inner = ctx._replace(prefix=qual, defs=(*ctx.defs, fn),
                             scope=self.scopes[-1], top=ctx.top or order,
                             loop=None)
        outer = inner._replace(defs=ctx.defs)
        for child in ast.iter_child_nodes(node):
            decorator = any(child is d for d in node.decorator_list)
            self._visit(child, order[0] + 1, outer if decorator else inner)

    _visit_AsyncFunctionDef = _visit_FunctionDef

    def _visit_Lambda(self, node, order, ctx):
        calls = self.identity_calls[id(node)] = []
        inner = ctx._replace(scope=None, top=ctx.top or order, loop=None)
        body = inner._replace(lambda_bodies=(*ctx.lambda_bodies, calls))
        for child in ast.iter_child_nodes(node):
            self._visit(child, order[0] + 1,
                        body if child is node.body else inner)

    def _visit_ClassDef(self, node, order, ctx):
        site = ClassSite(node, order)
        self.classes.append(site)
        inner = ctx._replace(
            prefix=f"{ctx.prefix}.{node.name}" if ctx.prefix else node.name,
            classes=(*ctx.classes, site), in_class=True)
        for child in ast.iter_child_nodes(node):
            child_ctx = inner
            if any(child is d for d in node.decorator_list):
                child_ctx = inner._replace(in_class=ctx.in_class)
            elif isinstance(child, DEFS):
                mutations: list[tuple[Order, str, int]] = []
                site.methods.append((child.name, mutations))
                child_ctx = inner._replace(
                    methods=(*inner.methods, mutations))
            self._visit(child, order[0] + 1, child_ctx)

    def _visit_Import(self, node, order, ctx):
        self.imports.append((order, node))
        return ctx

    _visit_ImportFrom = _visit_Import

    def _visit_Call(self, node, order, ctx):
        site = CallSite(node, order, ctx.defs[-1] if ctx.defs else None,
                        ctx.in_class)
        self.calls.append(site)
        for cls in ctx.classes:
            cls.calls.append(site)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            self._mutation(func.value, order, node.lineno, ctx)
        elif isinstance(func, ast.Name) and func.id in ("id", "hash"):
            for calls in ctx.lambda_bodies:
                calls.append((order, func.id))
        return ctx

    def _mutation(self, target, order, line, ctx):
        """``target`` is mutated in place (``target[k] = v``,
        ``target.append(v)``...)."""
        if isinstance(target, ast.Name):
            if ctx.top is not None:
                self.mutations.setdefault(target.id, []).append(
                    (ctx.top, order, line))
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            for mutations in ctx.methods:
                mutations.append((order, target.attr, line))

    def _visit_Assign(self, node, order, ctx):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._mutation(target.value, order, node.lineno, ctx)
            elif isinstance(target, ast.Name) and ctx.top is not None:
                self.rebinds.setdefault(target.id, []).append(
                    (ctx.top, order, node.lineno))
        if isinstance(node, ast.Assign):
            if ctx.scope is not None:
                ctx.scope.assigns.append(node)
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                for fn in ctx.defs:
                    fn.assigns.append((targets[0].id, node.value))
        return self._statement(node, order, ctx)

    _visit_AugAssign = _visit_Assign

    def _visit_Delete(self, node, order, ctx):
        for target in node.targets:
            if isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name):
                self._mutation(target.value, order, node.lineno, ctx)
        return self._statement(node, order, ctx)

    def _visit_Global(self, node, order, ctx):
        if ctx.top is not None:
            self.globals.update((ctx.top, name) for name in node.names)
        return ctx

    def _visit_Return(self, node, order, ctx):
        for fn in ctx.defs:
            fn.returns.append(node)
        return self._escape(node, order, ctx)

    def _escape(self, node, order, ctx):
        self.escaping.update(ctx.handlers)
        if isinstance(node, ast.Break):
            return ctx
        return self._statement(node, order, ctx)

    _visit_Raise = _visit_Break = _escape

    def _visit_Continue(self, node, order, ctx):
        self.continuing.update(ctx.handlers)
        return ctx

    def _statement(self, node, order, ctx):
        end = node.end_lineno or node.lineno
        if end > node.lineno:
            self.stmt_spans.append((order, [node.lineno, end]))
        return ctx

    _visit_Expr = _visit_AnnAssign = _visit_Assert = _statement

    def _visit_For(self, node, order, ctx):
        if not isinstance(node, ast.While) and ctx.scope is not None:
            ctx.scope.iters.append(node.iter)
        if isinstance(node, ast.AsyncFor):
            return ctx
        loop = LoopSite(node, order, ctx.defs[-1].qual if ctx.defs else "")
        self.loops.append(loop)
        return ctx._replace(loop=loop)

    _visit_AsyncFor = _visit_While = _visit_For

    def _visit_ListComp(self, node, order, ctx):
        if ctx.scope is not None:
            ctx.scope.iters.extend(gen.iter for gen in node.generators)
        return ctx

    _visit_SetComp = _visit_DictComp = _visit_GeneratorExp = _visit_ListComp

    def _visit_Try(self, node, order, ctx):
        if ctx.loop is not None:
            ctx.loop.handlers.extend(node.handlers)
        return ctx

    def _visit_ExceptHandler(self, node, order, ctx):
        return ctx._replace(handlers=(*ctx.handlers, id(node)))

    def _visit_Constant(self, node, order, ctx):
        if isinstance(node.value, str):
            self.strings[node.value] = self.strings.get(node.value, 0) + 1
        return ctx

    def _visit_Subscript(self, node, order, ctx):
        if isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            self.load_subscripts.append((order, node.slice.value))
        return ctx

    def _visit_Attribute(self, node, order, ctx):
        if node.attr in METRIC_READS and isinstance(node.value, ast.Call):
            self.read_wrapped.add(id(node.value))
        return ctx


#: ``_visit_<NodeType>`` methods by node type, as in ``ast.NodeVisitor``.
_VISITORS = {getattr(ast, name[len("_visit_"):]): visitor
             for name, visitor in vars(ModuleWalk).items()
             if name.startswith("_visit_")}
