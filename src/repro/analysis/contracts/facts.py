"""Per-module fact extraction over the analyzer's one parse and one
:class:`~repro.analysis.walk.ModuleWalk` of each file.

One :class:`ModuleFacts` is the complete, JSON-serializable summary of
everything the rules need to know about one source file — the per-file
determinism rules (D001–D006) and the cross-module contract rules
(C001–C004) alike:

- **Determinism violations** — the raw D-rule hits
  (:mod:`repro.analysis.rules`).

- **Topic sinks** — string literals (and f-string templates) flowing
  into ``bus.publish(...)``/``broker.route(...)`` on the publish side
  and ``broker.bind(...)``/``topic_matches(...)`` on the subscribe side.
  Literals are resolved through one level of local constant propagation
  (``topic = "a.b"; bus.publish(..., topic, ...)``) and through
  literal-returning helper functions (``TelemetryPublisher.topic_for``),
  so the analyzer sees the topics the runtime actually emits.
- **Metric sinks** — ``registry.counter/gauge/histogram("name")``
  declarations and ``sim.metrics.stats("prefix", {...})`` registrations
  of a component's plain ``stats`` dict (one fact per initial key), each
  with its kind, so drift and kind-collision checks can run
  project-wide.
- **Resilience facts** — ``resilient_call(...)`` invocations (and
  whether they carry a ``deadline=``), plus syntactic retry loops
  (``while``/``for`` + swallowed ``except`` + re-iteration).
- **Class facts** — which attributes each class mutates in place outside
  ``__init__``, whether it provides a merge protocol
  (``merge_from``/``state``/``merge_state``/``merge``), its bases, and
  which classes it instantiates (the reachability edges C004 walks).
- **String occurrences** — every string constant (plus ``Load``-context
  subscript keys), the read-side universe for metric-drift checks.
- **Pragmas and statement spans** — enough source geometry to apply the
  ``# detlint: ignore[...]`` mechanism from cached facts without
  re-reading the file, including first-line pragmas on wrapped
  multi-line statements.

Pragmas
-------
A finding is *suppressed* (reported but not counted against the exit
code) when the flagged line — or a comment-only line directly above it —
carries::

    # detlint: ignore[D001]         suppress one rule on this line
    # detlint: ignore[D001,C003]    suppress several
    # detlint: ignore               suppress every rule on this line

A finding on a continuation line of a wrapped statement is also covered
by a pragma on (or directly above) the statement's first line.  Anything
after the closing bracket is free-form justification; write one.

Everything here is syntactic and module-local; the cross-module joins
live in :mod:`repro.analysis.contracts.rules` over the assembled
:class:`~repro.analysis.contracts.project.ProjectIndex`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.analysis.rules import Violation, check
from repro.analysis.walk import (DEFS, CallSite, ClassSite, Def, LoopSite,
                                 ModuleWalk, call_terminal)

__all__ = ["FACTS_VERSION", "ModuleFacts", "TopicFact", "MetricFact",
           "ResilienceFact", "ClassFact", "extract_facts", "parse_error_facts"]

#: Bump whenever the extraction output changes shape or semantics — the
#: incremental cache discards entries recorded under a different version.
FACTS_VERSION = 6

#: A formatted (non-literal) f-string segment: matches any one topic
#: segment.  Kept as a string marker so facts stay JSON-round-trippable.
ANY_SEGMENT = "\x00"

_PRAGMA = re.compile(r"#\s*detlint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")

# (attribute name, positional index, keyword name) triples locating the
# topic argument of each known sink.  ``MessageBus.publish(broker, src,
# topic, message)`` puts the topic third; ``Broker.route(topic, env)``
# and ``topic_matches(pattern, topic)`` lead with it.
_PUBLISH_SINKS = (("publish", 2, "topic"), ("route", 0, "topic"))
_SUBSCRIBE_SINKS = (("bind", 1, "pattern"), ("topic_matches", 0, "pattern"))

_METRIC_SINKS = frozenset({"counter", "gauge", "histogram"})

_MERGE_PROTOCOL = frozenset({"merge_from", "state", "merge_state", "merge"})


@dataclass
class TopicFact:
    """One topic literal flowing into a publish- or subscribe-side sink.

    ``segments`` is the dot-split topic with :data:`ANY_SEGMENT` marking
    f-string placeholders; ``None`` means the argument never resolved to
    a literal (a *dynamic* topic, treated as matching everything).
    """

    topic: str                       # rendered template ("" when dynamic)
    segments: Optional[list[str]]    # None = dynamic / unresolvable
    line: int
    col: int
    sink: str                        # "publish" | "route" | "bind" | ...
    func: str = ""                   # enclosing def / class.def


@dataclass
class MetricFact:
    """One metric-name declaration (``kind`` distinguishes the family).

    ``stats("prefix", {...})`` expands to one fact per key with
    ``kind="stats"`` and ``name="prefix.<key>"``.
    """

    kind: str
    name: str
    line: int
    col: int
    func: str = ""
    #: True when the factory call is immediately dereferenced with a
    #: read accessor (``.value``, ``.summary()``, ...) — a consumption
    #: site, not an emission.
    read: bool = False


@dataclass
class ResilienceFact:
    """A ``resilient_call`` invocation or a syntactic bare retry loop."""

    kind: str                        # "resilient_call" | "retry_loop"
    line: int
    col: int
    func: str = ""
    has_deadline: bool = False


@dataclass
class ClassFact:
    """Merge-protocol-relevant summary of one class definition."""

    name: str
    line: int
    col: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    mutated_attrs: list[str] = field(default_factory=list)
    mutation_line: int = 0
    has_merge: bool = False
    instantiates: list[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything one file contributes to the whole-program analysis."""

    path: str
    module: str
    version: int = FACTS_VERSION
    publishes: list[TopicFact] = field(default_factory=list)
    subscribes: list[TopicFact] = field(default_factory=list)
    metrics: list[MetricFact] = field(default_factory=list)
    resilience: list[ResilienceFact] = field(default_factory=list)
    classes: list[ClassFact] = field(default_factory=list)
    instantiated: list[str] = field(default_factory=list)
    strings: dict[str, int] = field(default_factory=dict)
    load_subscripts: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: line -> codes a pragma suppresses there (``[]`` = every code).
    pragmas: dict[str, list[str]] = field(default_factory=dict)
    stmt_spans: list[list[int]] = field(default_factory=list)
    parse_error: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleFacts":
        out = cls(path=data["path"], module=data["module"],
                  version=data.get("version", 0))
        out.publishes = [TopicFact(**d) for d in data.get("publishes", ())]
        out.subscribes = [TopicFact(**d) for d in data.get("subscribes", ())]
        out.metrics = [MetricFact(**d) for d in data.get("metrics", ())]
        out.resilience = [ResilienceFact(**d)
                          for d in data.get("resilience", ())]
        out.classes = [ClassFact(**d) for d in data.get("classes", ())]
        out.instantiated = list(data.get("instantiated", ()))
        out.strings = dict(data.get("strings", {}))
        out.load_subscripts = list(data.get("load_subscripts", ()))
        out.violations = [Violation(**d) for d in data.get("violations", ())]
        out.pragmas = {k: list(v) for k, v in data.get("pragmas", {}).items()}
        out.stmt_spans = [list(span) for span in data.get("stmt_spans", ())]
        out.parse_error = data.get("parse_error")
        return out

    # -- pragma resolution (works entirely from cached facts) --------------

    def stmt_start(self, line: int) -> int:
        """First line of the innermost multi-line statement covering
        ``line`` (or ``line`` itself)."""
        best = line
        best_span = None
        for start, end in self.stmt_spans:
            if start <= line <= end:
                if best_span is None or (end - start) < best_span:
                    best, best_span = start, end - start
        return best

    def suppressed(self, line: int, code: str) -> bool:
        """True when a pragma covers ``code`` at ``line`` or at the first
        line of the enclosing wrapped statement (see the module
        docstring for where a pragma may sit)."""
        for cand in (line, self.stmt_start(line)):
            codes = self.pragmas.get(str(cand))
            if codes is not None and (not codes or code in codes):
                return True
        return False


def parse_error_facts(path: str, module: str, line: int,
                      message: str) -> ModuleFacts:
    """Facts for a file that failed to parse (carried as a finding)."""
    facts = ModuleFacts(path=path, module=module)
    facts.parse_error = {"line": max(1, int(line or 1)), "message": message}
    return facts


# -- literal resolution --------------------------------------------------------


def _literal_template(node: ast.expr) -> Optional[str]:
    """Render a Constant/JoinedStr to a topic template, placeholders as
    :data:`ANY_SEGMENT`; ``None`` when the expression is not literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              str):
                parts.append(value.value)
            else:
                parts.append(ANY_SEGMENT)
        return "".join(parts)
    return None


def _template_segments(template: str) -> list[str]:
    """Dot-split a template; any segment touched by a placeholder becomes
    :data:`ANY_SEGMENT` wholesale (``lab-{i}.xrd`` -> ``["\\0", "xrd"]``)."""
    return [ANY_SEGMENT if ANY_SEGMENT in seg else seg
            for seg in template.split(".")]


def _single_assignment(node: ast.expr,
                       fn: Optional[Def]) -> Optional[ast.expr]:
    """The value of a local name the def assigns exactly once."""
    if not isinstance(node, ast.Name) or fn is None:
        return None
    values = [value for name, value in fn.assigns if name == node.id]
    return values[0] if len(values) == 1 else None


def _literal_return_functions(walk: ModuleWalk) -> dict[str, str]:
    """Names of the module's functions and top-level methods whose body
    returns exactly one string literal/f-string — e.g. ``topic_for``."""
    out: dict[str, str] = {}
    for stmt in walk.tree.body:
        for fn in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            if not isinstance(fn, DEFS):
                continue
            returns = walk.defs[id(fn)].returns
            if len(returns) == 1 and returns[0].value is not None:
                template = _literal_template(returns[0].value)
                if template is not None:
                    out[fn.name] = template
    return out


def _resolve_topic_arg(node: ast.expr, fn: Optional[Def],
                       literal_fns: dict[str, str]) -> Optional[str]:
    """Best-effort template for a topic argument expression."""
    template = _literal_template(node)
    if template is not None:
        return template
    if isinstance(node, ast.Name):
        value = _single_assignment(node, fn)
        return None if value is None else _literal_template(value)
    if isinstance(node, ast.Call):
        terminal = call_terminal(node)
        if terminal is not None and terminal in literal_fns:
            return literal_fns[terminal]
    return None


def _resolve_dict_arg(node: ast.expr, fn: Optional[Def]) -> Optional[list[str]]:
    """String keys of a dict-literal argument (directly or through one
    local single assignment)."""
    node = _single_assignment(node, fn) or node
    if not isinstance(node, ast.Dict):
        return None
    keys = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


# -- extraction ----------------------------------------------------------------


def _sink_arg(call: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


def _is_retry_loop(loop: LoopSite, walk: ModuleWalk) -> bool:
    """A try in the loop swallows an exception (its handler neither
    raises, returns nor breaks) and the loop goes round again: the
    handler continues, or the loop is ``while True``."""
    node = loop.node
    while_true = isinstance(node, ast.While) \
        and isinstance(node.test, ast.Constant) and node.test.value is True
    return any(id(handler) not in walk.escaping
               and (while_true or id(handler) in walk.continuing)
               for handler in loop.handlers)


def _instantiations(sites: list[CallSite], skip: str = "") -> list[str]:
    """Distinct callees that look like classes (capitalized), resolved
    when imported, first occurrence first."""
    seen = {skip}
    out: list[str] = []
    for site in sites:
        terminal = call_terminal(site.node)
        if terminal is None or not terminal[:1].isupper():
            continue
        cand = site.target or terminal
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def _extract_class(site: ClassSite, walk: ModuleWalk) -> ClassFact:
    node = site.node
    fact = ClassFact(name=node.name, line=node.lineno, col=node.col_offset)
    for base in node.bases:
        resolved = walk.resolve(base)
        if resolved is not None:
            fact.bases.append(resolved)
        elif isinstance(base, ast.Name):
            fact.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            fact.bases.append(base.attr)
    mutated: dict[str, int] = {}
    for name, mutations in site.methods:
        fact.methods.append(name)
        if name in ("__init__", "__new__"):
            continue
        for _, attr, line in sorted(mutations):
            mutated.setdefault(attr, line)
    fact.mutated_attrs = sorted(mutated)
    fact.mutation_line = min(mutated.values()) if mutated else 0
    fact.has_merge = bool(_MERGE_PROTOCOL.intersection(fact.methods))
    fact.instantiates = _instantiations(site.calls, skip=node.name)
    return fact


def _harvest_pragmas(source: str) -> dict[str, list[str]]:
    """Resolve pragma geometry once: a pragma covers its own line, and a
    pragma on a comment-only line also covers the line below it.  A
    pragma trailing code covers nothing but that line."""
    pragmas: dict[str, list[str]] = {}
    for line_no, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(text)
        if m is None:
            continue
        codes = [c.strip() for c in (m.group("codes") or "").split(",")
                 if c.strip()]
        covered = (line_no, line_no + 1) if text.lstrip().startswith("#") \
            else (line_no,)
        for target in map(str, covered):
            prev = pragmas.get(target)
            pragmas[target] = [] if not codes or prev == [] \
                else sorted({*(prev or ()), *codes})
    return pragmas


def extract_facts(source: str, path: str, module: str) -> ModuleFacts:
    """Parse one file, walk it once, and extract its :class:`ModuleFacts`.

    Raises ``SyntaxError`` on unparsable input — the project indexer
    converts that into :func:`parse_error_facts` so a broken file is a
    finding, not a crash.
    """
    walk = ModuleWalk(ast.parse(source, filename=path))
    facts = ModuleFacts(path=path, module=module)
    literal_fns = _literal_return_functions(walk)
    for site in walk.calls:
        node, qual = site.node, site.owner.qual if site.owner else ""
        terminal = call_terminal(node)
        if terminal is None:
            continue

        # -- topic sinks ---------------------------------------------------
        for sinks, bucket in ((_PUBLISH_SINKS, facts.publishes),
                              (_SUBSCRIBE_SINKS, facts.subscribes)):
            for attr, index, keyword in sinks:
                if terminal != attr:
                    continue
                arg = _sink_arg(node, index, keyword)
                if arg is None:
                    continue
                template = _resolve_topic_arg(arg, site.owner, literal_fns)
                if template is None:
                    # ``.publish``/``.bind`` are overloaded verbs across
                    # the codebase (mesh indexes publish dict entries),
                    # so an arbitrary expression at the topic position
                    # must not poison the whole-program match.  Record a
                    # *dynamic* topic (matches everything) only when the
                    # argument is self-evidently a topic: a name or call
                    # with "topic" in it that local propagation and
                    # literal-return resolution both failed to pin down.
                    topicish = (
                        (isinstance(arg, ast.Name)
                         and "topic" in arg.id.lower())
                        or (isinstance(arg, ast.Call)
                            and "topic" in (call_terminal(arg) or "").lower()
                            ))
                    if topicish and attr in ("publish", "route"):
                        bucket.append(TopicFact(
                            topic="", segments=None, line=node.lineno,
                            col=node.col_offset, sink=attr, func=qual))
                    continue
                bucket.append(TopicFact(
                    topic=template, segments=_template_segments(template),
                    line=node.lineno, col=node.col_offset, sink=attr,
                    func=qual))

        # -- metric sinks --------------------------------------------------
        if terminal in _METRIC_SINKS and isinstance(node.func,
                                                    ast.Attribute):
            arg = _sink_arg(node, 0, "name")
            if arg is not None and isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str):
                facts.metrics.append(MetricFact(
                    kind=terminal, name=arg.value, line=node.lineno,
                    col=node.col_offset, func=qual,
                    read=id(node) in walk.read_wrapped))
        elif terminal == "stats" and isinstance(node.func, ast.Attribute):
            prefix_arg = _sink_arg(node, 0, "prefix")
            initial_arg = _sink_arg(node, 1, "initial")
            if prefix_arg is not None and isinstance(prefix_arg,
                                                     ast.Constant) \
                    and isinstance(prefix_arg.value, str) \
                    and initial_arg is not None:
                keys = _resolve_dict_arg(initial_arg, site.owner)
                for key in keys or ():
                    facts.metrics.append(MetricFact(
                        kind="stats", name=f"{prefix_arg.value}.{key}",
                        line=node.lineno, col=node.col_offset, func=qual))

        # -- resilience sinks ----------------------------------------------
        if terminal == "resilient_call":
            has_deadline = any(
                kw.arg == "deadline"
                and not (isinstance(kw.value, ast.Constant)
                         and kw.value.value is None)
                for kw in node.keywords)
            facts.resilience.append(ResilienceFact(
                kind="resilient_call", line=node.lineno,
                col=node.col_offset, func=qual, has_deadline=has_deadline))

    # -- retry loops -------------------------------------------------------
    # A try inside a nested loop belongs to the *innermost* loop — the
    # outer loop would otherwise double-report the same pattern.
    facts.resilience.extend(
        ResilienceFact(kind="retry_loop", line=loop.node.lineno,
                       col=loop.node.col_offset, func=loop.qual)
        for loop in walk.loops if _is_retry_loop(loop, walk))

    # -- classes and instantiations ----------------------------------------
    facts.classes = [_extract_class(site, walk) for site in walk.classes]
    facts.instantiated = _instantiations(
        [site for site in walk.calls if not site.in_class])

    facts.strings = walk.strings
    facts.load_subscripts = [key for _, key in walk.load_subscripts]
    facts.violations = check(walk)
    facts.pragmas = _harvest_pragmas(source)
    facts.stmt_spans = [span for _, span in walk.stmt_spans]
    return facts
