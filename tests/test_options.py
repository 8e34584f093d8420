"""Every defaulted parameter in ``repro`` must have a caller that sets it.

An option nobody sets doubles the configurations tests must cover and
hides the value the experiments actually run with: it should be a named
constant instead.  This test parses ``src/repro`` and fails on any
defaulted parameter that no call site in ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` passes — by keyword, by
position, through ``super().__init__``, through ``functools.partial`` or
through ``**kwargs`` forwarding — unless it is on :data:`ALLOWLIST` with
a reason.

Call sites are matched by callee *name*, so the check errs towards "set":
a call through a variable or a registry is invisible to it, while a
same-named method elsewhere counts as a caller.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SKIPPED = ()
CALLER_ROOTS = ("src", "tests", "benchmarks", "examples", "perfbench")

#: ``module.qualname:param`` -> why it may stay unset.
ALLOWLIST = {
    "repro.data.ingest.wire_site_telemetry:token":
        "credential: secured deployments attach a bus token",
    "repro.security.identity.FederatedIdentityProvider.__init__:secret":
        "credential: the IdP signing key, generated when omitted",
}

ALL = object()  # a call that may set every keyword (unresolved ``**``)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _name(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions():
    """(key, callee names, positional names, defaulted names) per function."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] not in SKIPPED:
            module = ".".join(path.relative_to(ROOT / "src")
                              .with_suffix("").parts)
            modules[module] = _parse(path)
    bases, own_init = {}, set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases}
                if any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body):
                    own_init.add(node.name)

    def inheritors(cls: str) -> set[str]:
        out = set()
        for sub, sub_bases in bases.items():
            if cls in sub_bases and sub not in own_init:
                out |= {sub} | inheritors(sub)
        return out

    def walk(body, prefix: str, cls: "str | None"):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                              if d is not None]
                if not defaulted:
                    continue
                static = any(_name(d) == "staticmethod"
                             for d in node.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]  # self / cls
                names = {node.name}
                if cls is not None and node.name == "__init__":
                    names = {cls} | inheritors(cls)
                yield (f"{prefix}{node.name}", names, positional, defaulted)

    for module, tree in modules.items():
        yield from walk(tree.body, f"{module}.", None)


def _calls():
    """Callee name -> list of (n positional, starred, keywords or ALL)."""
    calls = defaultdict(list)
    forwards = []  # (callee, forwarding function's callee name)
    for root in CALLER_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            _scan(_parse(path), calls, forwards)
    changed = True
    while changed:  # keywords reaching a ``**kwargs`` flow on to its target
        changed = False
        for callee, via in forwards:
            for _, _, keywords in list(calls[via]):
                entry = (0, False, keywords)
                if entry not in calls[callee]:
                    calls[callee].append(entry)
                    changed = True
    return calls


def _scan(tree: ast.Module, calls, forwards) -> None:
    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        elif isinstance(node, ast.Call):
            record(node, cls, fn)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    def record(call: ast.Call, cls, fn) -> None:
        name = _name(call.func)
        targets = [name]
        if (name == "__init__" and isinstance(call.func.value, ast.Call)
                and _name(call.func.value.func) == "super" and cls):
            targets = [_name(b) for b in cls.bases]
        elif name == "cls" and cls is not None:
            targets = [cls.name]
        elif name == "partial" and call.args:
            targets = [_name(call.args[0])]
            call = ast.Call(call.func, call.args[1:], call.keywords)
        keywords: "set[str] | object" = set()
        for kw in call.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in kw.value.keys):
                keywords |= {k.value for k in kw.value.keys}
            elif (fn is not None and fn.args.kwarg is not None
                  and _name(kw.value) == fn.args.kwarg.arg):
                via = cls.name if (cls and fn.name == "__init__") \
                    else fn.name
                forwards.extend((t, via) for t in targets if t)
            else:
                keywords = ALL
                break
        n_positional = sum(not isinstance(a, ast.Starred) for a in call.args)
        starred = len(call.args) > n_positional
        for target in targets:
            if target:
                calls[target].append((n_positional, starred, keywords))

    visit(tree, None, None)


def _never_set() -> list[str]:
    calls = _calls()
    unset = []
    for key, names, positional, defaulted in _definitions():
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(keywords is ALL or param in keywords
                       or (index is not None and (starred or index < npos))
                       for name in names
                       for npos, starred, keywords in calls[name]):
                unset.append(f"{key}:{param}")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    unset = _never_set()
    unlisted = sorted(set(unset) - set(ALLOWLIST))
    assert not unlisted, (
        "defaulted parameters no caller sets; make each a named constant "
        "(or allowlist it with a reason):\n  " + "\n  ".join(unlisted))
    stale = sorted(set(ALLOWLIST) - set(unset))
    assert not stale, f"allowlisted parameters now have callers: {stale}"


def test_allowlist_entries_carry_reasons():
    assert all(reason.strip() for reason in ALLOWLIST.values())
