"""AST lock-order analysis over the whole package.

The analyzer parses every module under ``src/repro`` and enforces the
hierarchy declared in :mod:`repro.analysis.registry`:

* **inversion** — somewhere in the call graph a lock is acquired whose
  level is ≤ the level of a lock already held (re-entering the same
  re-entrant lock is legal).  Acquisitions are found at ``with <lock>:``
  and ``<lock>.acquire()`` sites; held-lock sets propagate lexically
  through nested ``with`` blocks and interprocedurally through an
  intra-package call graph (receiver resolution by ``self``, parameter
  type hints, ``self.attr = ClassName()`` construction sites, and unique
  attribute/method names — ambiguous receivers are skipped: precision
  over recall).
* **cycle** — the acquired-while-held graph contains a cycle (can only
  appear when inversions are suppressed away).
* **undeclared-lock** — a raw ``threading.Lock``/``RLock`` construction
  outside the factory module (:mod:`repro.analysis.runtime`).
* **unknown-lock-name** — a ``make_lock``/``make_rlock`` call whose name
  literal is not in the registry (or whose kind disagrees with it).
* **stale-registry** — a registry entry with no construction site left in
  the tree (the table would go stale in the other direction).
* **bad-suppression** — a ``lock-lint: ignore`` comment without the
  mandatory justification.

Suppress a finding on its line with ``# lock-lint: ignore[<rule>] — <why>``.
"""

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import LOCKS, KIND_RLOCK, LockSpec

#: The module whose raw ``threading.Lock``/``RLock`` constructions are the
#: factories themselves (plus the checker's internal counter lock).
FACTORY_MODULE = "repro.analysis.runtime"

FACTORY_FUNCTIONS = {"make_lock": "Lock", "make_rlock": "RLock"}

#: Method names common on builtin containers/strings/files (and ``os``): the
#: unique-method call-graph fallback never fires for these — a
#: ``self._records.append(...)`` on a plain list must not resolve to
#: ``WriteAheadLog.append``, nor ``os.replace(tmp, path)`` to
#: ``AtomType.replace``.  Typed receivers still resolve normally.
COMMON_METHOD_NAMES = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "get", "keys", "values",
    "items", "copy", "sort", "reverse", "count", "index", "join", "split",
    "strip", "replace", "write", "read", "readline", "flush", "seek", "tell",
    "acquire", "release", "close", "open", "send", "recv", "put",
})

SUPPRESSION_RULES = (
    "inversion",
    "cycle",
    "undeclared-lock",
    "unknown-lock-name",
    "unresolved-lock",
    "unguarded-write",
)


@dataclass(frozen=True)
class Finding:
    """One reported problem."""

    rule: str
    module: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.module}:{self.line}: [{self.rule}] {self.message}"


class Registry:
    """Lookup maps over a sequence of :class:`LockSpec` declarations."""

    def __init__(self, locks: Sequence[LockSpec] = LOCKS) -> None:
        self.locks: Tuple[LockSpec, ...] = tuple(locks)
        self.by_name: Dict[str, LockSpec] = {s.name: s for s in self.locks}
        self.by_attribute: Dict[str, List[LockSpec]] = {}
        for spec in self.locks:
            self.by_attribute.setdefault(spec.attribute, []).append(spec)

    def lock_for(self, owner: str, attribute: str) -> Optional[LockSpec]:
        return self.by_name.get(f"{owner}.{attribute}")


# --------------------------------------------------------------- sources


def collect_sources(root: str) -> Dict[str, str]:
    """``{dotted module name: source text}`` for every ``.py`` under *root*.

    *root* is the directory that **contains** the top-level package (e.g.
    ``src``), or the package directory itself (then its own name heads the
    dotted names).
    """
    root = os.path.abspath(root)
    base = os.path.dirname(root) if os.path.isfile(os.path.join(root, "__init__.py")) else root
    sources: Dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__pycache__")))
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, base)
            parts = relative[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
            with open(path, "r", encoding="utf-8") as handle:
                sources[module] = handle.read()
    return sources


# -------------------------------------------------------------- comments


@dataclass
class CommentMap:
    """Per-line comments of one module, plus parsed lint directives."""

    comments: Dict[int, str] = field(default_factory=dict)
    #: line → set of suppressed rules (only well-formed directives).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: malformed ``lock-lint`` directives: line → raw text.
    malformed: Dict[int, str] = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, ())


def scan_comments(source: str) -> CommentMap:
    result = CommentMap()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string
            line = token.start[0]
            result.comments[line] = text
            match = re.search(r"lock-lint\s*:", text)
            if match is None:  # mere mentions of lock-lint are not directives
                continue
            directive = text[match.end():].lstrip()
            if not directive.startswith("ignore["):
                result.malformed[line] = text
                continue
            rule, _, rest = directive[len("ignore["):].partition("]")
            rule = rule.strip()
            reason = rest.strip().lstrip("—–-").strip()
            if rule not in SUPPRESSION_RULES or not reason:
                result.malformed[line] = text
                continue
            result.suppressions.setdefault(line, set()).add(rule)
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        pass
    return result


# ------------------------------------------------------- lock resolution

#: Sentinel for "looks like a registered lock but the receiver is ambiguous".
UNRESOLVED = object()


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """The class name named by an annotation node (``Foo``, ``"Foo"``,
    ``module.Foo``, ``Optional[Foo]``)."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        return text.split("[")[-1].rstrip("]").split(".")[-1] or None
    if isinstance(node, ast.Subscript):  # Optional[Foo] / "List[Foo]"
        inner = node.slice
        if isinstance(inner, ast.Index):  # pragma: no cover - py<3.9
            inner = inner.value
        return _annotation_name(inner)
    return None


class Scope:
    """Resolution context inside one function."""

    def __init__(
        self,
        module: str,
        cls: Optional[str],
        annotations: Dict[str, str],
        attr_types: Dict[Tuple[str, str], str],
    ) -> None:
        self.module = module
        self.cls = cls
        #: local/parameter name → class name (from type hints).
        self.annotations = annotations
        #: (class, attribute) → class name (from ``self.x = ClassName()``).
        self.attr_types = attr_types


def resolve_lock(node: ast.expr, scope: Scope, registry: Registry):
    """Resolve a ``with``-item / ``.acquire()`` receiver to a LockSpec.

    Returns the spec, ``None`` (not a registered lock — e.g. an arbitrary
    context manager), or :data:`UNRESOLVED` (a registered attribute name
    on a receiver the analyzer cannot type)."""
    if isinstance(node, ast.Subscript):  # lock families: self._slot_locks[i]
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    attribute = node.attr
    candidates = registry.by_attribute.get(attribute)
    if not candidates:
        return None
    base = node.value
    owner: Optional[str] = None
    if isinstance(base, ast.Name):
        if base.id == "self":
            owner = scope.cls
        else:
            owner = scope.annotations.get(base.id)
    elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        if base.value.id == "self" and scope.cls is not None:
            owner = scope.attr_types.get((scope.cls, base.attr))
    if owner is not None:
        spec = registry.lock_for(owner, attribute)
        if spec is not None:
            return spec
        # The receiver has a known type that does not declare this lock —
        # fall through to the unique-attribute match (e.g. a subclass).
    if len(candidates) == 1:
        return candidates[0]
    return UNRESOLVED


# ------------------------------------------------------------ the walker


@dataclass
class Acquire:
    spec: LockSpec
    held: Tuple[LockSpec, ...]
    line: int


@dataclass
class CallSite:
    #: ('method', class name or None, method name) or ('function', name).
    target: Tuple
    held: Tuple[LockSpec, ...]
    line: int


@dataclass
class FunctionFacts:
    key: str  # "module:Class.method" or "module:function"
    module: str
    cls: Optional[str]
    name: str
    acquires: List[Acquire] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


class _FunctionWalker(ast.NodeVisitor):
    """Collects acquisition and call events with lexical held-lock sets."""

    def __init__(self, facts: FunctionFacts, scope: Scope, registry: Registry,
                 unresolved: List[Tuple[int, str]]) -> None:
        self.facts = facts
        self.scope = scope
        self.registry = registry
        self.unresolved = unresolved
        self.held: List[LockSpec] = []

    # -- with blocks ----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node) -> None:  # pragma: no cover - no async
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            resolved = resolve_lock(expr, self.scope, self.registry)
            if resolved is UNRESOLVED:
                self.unresolved.append((expr.lineno, ast.unparse(expr)))
                continue
            if resolved is not None:
                self.facts.acquires.append(
                    Acquire(resolved, tuple(self.held), expr.lineno)
                )
                self.held.append(resolved)
                pushed += 1
            else:
                # Not a lock: still record the context-manager call so the
                # call graph sees helper context managers.
                self.visit(expr)
        for statement in node.body:
            self.visit(statement)
        for _ in range(pushed):
            self.held.pop()

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        function = node.func
        if isinstance(function, ast.Attribute):
            if function.attr == "acquire":
                resolved = resolve_lock(function.value, self.scope, self.registry)
                if resolved is UNRESOLVED:
                    self.unresolved.append(
                        (node.lineno, ast.unparse(function.value))
                    )
                elif resolved is not None:
                    self.facts.acquires.append(
                        Acquire(resolved, tuple(self.held), node.lineno)
                    )
            else:
                base = function.value
                owner: Optional[str] = None
                if isinstance(base, ast.Name):
                    if base.id == "self":
                        owner = self.scope.cls
                    else:
                        owner = self.scope.annotations.get(base.id)
                elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                    if base.value.id == "self" and self.scope.cls is not None:
                        owner = self.scope.attr_types.get(
                            (self.scope.cls, base.attr)
                        )
                self.facts.calls.append(
                    CallSite(("method", owner, function.attr), tuple(self.held), node.lineno)
                )
        elif isinstance(function, ast.Name):
            self.facts.calls.append(
                CallSite(("function", function.id), tuple(self.held), node.lineno)
            )
        self.generic_visit(node)

    # Nested defs/lambdas run with an unknown held set at call time; their
    # bodies are analyzed at the definition point (the enclosing held set is
    # the best lexical approximation — closures here are undo/swap thunks
    # invoked under the same or a deeper held set).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for statement in node.body:
            self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


# ----------------------------------------------------------- module pass


@dataclass
class ModuleFacts:
    module: str
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    #: class name → {method name: function key}
    classes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: raw threading.Lock/RLock constructions: (line, kind)
    raw_constructions: List[Tuple[int, str]] = field(default_factory=list)
    #: factory calls: (line, kind, name literal or None)
    factory_calls: List[Tuple[int, str, Optional[str]]] = field(default_factory=list)
    #: registered-attribute acquisitions whose receiver couldn't be typed.
    unresolved: List[Tuple[int, str]] = field(default_factory=list)
    comment_map: CommentMap = field(default_factory=CommentMap)
    tree: Optional[ast.Module] = None


def _collect_attr_types(
    tree: ast.Module, class_names: Set[str]
) -> Dict[Tuple[str, str], str]:
    """``self.attr = ClassName(...)`` construction sites, package classes only."""
    attr_types: Dict[Tuple[str, str], str] = {}
    conflicted: Set[Tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in ast.walk(node):
            if not isinstance(method, ast.Assign):
                continue
            value = method.value
            if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
                continue
            constructed = value.func.id
            if constructed not in class_names:
                continue
            for target in method.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    key = (node.name, target.attr)
                    if key in attr_types and attr_types[key] != constructed:
                        conflicted.add(key)
                    attr_types[key] = constructed
    for key in conflicted:
        attr_types.pop(key, None)
    return attr_types


def _local_aliases(
    node: ast.FunctionDef,
    cls: Optional[str],
    attr_types: Dict[Tuple[str, str], str],
) -> Dict[str, str]:
    """Types of ``x = self.attr`` locals, via the attribute-type map.

    Closes the gap where ``hub = self._replication`` followed by
    ``hub.dispatch_state()`` would leave the receiver untyped and drop the
    call edge (the exact shape of the planner→hub inversion)."""
    if cls is None:
        return {}
    aliases: Dict[str, str] = {}
    conflicted: set = set()
    for statement in ast.walk(node):
        if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
            continue
        target = statement.targets[0]
        value = statement.value
        if not (isinstance(target, ast.Name) and isinstance(value, ast.Attribute)):
            continue
        if not (isinstance(value.value, ast.Name) and value.value.id == "self"):
            continue
        typed = attr_types.get((cls, value.attr))
        if typed is None:
            continue
        if target.id in aliases and aliases[target.id] != typed:
            conflicted.add(target.id)
        aliases[target.id] = typed
    for name in conflicted:
        aliases.pop(name, None)
    return aliases


def _parameter_annotations(node: ast.FunctionDef) -> Dict[str, str]:
    annotations: Dict[str, str] = {}
    args = list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs)
    for arg in args:
        name = _annotation_name(arg.annotation)
        if name:
            annotations[arg.arg] = name
    # Annotated locals: x: Foo = ...
    for statement in ast.walk(node):
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            name = _annotation_name(statement.annotation)
            if name:
                annotations[statement.target.id] = name
    return annotations


def _threading_aliases(tree: ast.Module) -> Tuple[Set[str], Dict[str, str]]:
    """(names bound to the threading module, direct Lock/RLock imports)."""
    modules: Set[str] = set()
    direct: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    modules.add(alias.asname or "threading")
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in ("Lock", "RLock"):
                    direct[alias.asname or alias.name] = alias.name
    return modules, direct


def analyze_module(
    module: str,
    source: str,
    registry: Registry,
    class_names: Set[str],
    attr_types: Dict[Tuple[str, str], str],
) -> ModuleFacts:
    facts = ModuleFacts(module=module, comment_map=scan_comments(source))
    tree = ast.parse(source)
    facts.tree = tree
    threading_names, direct_locks = _threading_aliases(tree)

    # Lock constructions (raw and via the factories).
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        kind = None
        if isinstance(function, ast.Attribute) and isinstance(function.value, ast.Name):
            if function.value.id in threading_names and function.attr in ("Lock", "RLock"):
                kind = function.attr
        elif isinstance(function, ast.Name) and function.id in direct_locks:
            kind = direct_locks[function.id]
        if kind is not None:
            facts.raw_constructions.append((node.lineno, kind))
            continue
        factory = None
        if isinstance(function, ast.Name) and function.id in FACTORY_FUNCTIONS:
            factory = function.id
        elif isinstance(function, ast.Attribute) and function.attr in FACTORY_FUNCTIONS:
            factory = function.attr
        if factory is not None:
            literal: Optional[str] = None
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                literal = node.args[0].value
            facts.factory_calls.append(
                (node.lineno, FACTORY_FUNCTIONS[factory], literal)
            )

    # Function facts.
    def walk_function(node: ast.FunctionDef, cls: Optional[str]) -> None:
        qual = f"{cls}.{node.name}" if cls else node.name
        key = f"{module}:{qual}"
        function_facts = FunctionFacts(key=key, module=module, cls=cls, name=node.name)
        annotations = _local_aliases(node, cls, attr_types)
        annotations.update(_parameter_annotations(node))
        scope = Scope(module, cls, annotations, attr_types)
        walker = _FunctionWalker(function_facts, scope, registry, facts.unresolved)
        for statement in node.body:
            walker.visit(statement)
        facts.functions[key] = function_facts
        if cls is not None:
            facts.classes.setdefault(cls, {})[node.name] = key

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(node, None)
        elif isinstance(node, ast.ClassDef):
            facts.classes.setdefault(node.name, {})
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk_function(sub, node.name)
    return facts


# ------------------------------------------------------------- analysis


class Analysis:
    """Whole-package lock-order analysis."""

    def __init__(self, sources: Dict[str, str], registry: Optional[Registry] = None) -> None:
        self.sources = sources
        self.registry = registry or Registry()
        self.findings: List[Finding] = []
        self.modules: Dict[str, ModuleFacts] = {}
        self.syntax_errors: List[Finding] = []

        trees: Dict[str, ast.Module] = {}
        for module, source in sorted(sources.items()):
            try:
                trees[module] = ast.parse(source)
            except SyntaxError as exc:  # pragma: no cover - repo parses
                self.syntax_errors.append(
                    Finding("syntax-error", module, exc.lineno or 0, str(exc))
                )

        # Package-wide class and method indexes for receiver resolution.
        self.class_names: Set[str] = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.class_names.add(node.name)
        self.attr_types: Dict[Tuple[str, str], str] = {}
        for tree in trees.values():
            self.attr_types.update(_collect_attr_types(tree, self.class_names))

        for module, source in sorted(sources.items()):
            if module not in trees:
                continue
            self.modules[module] = analyze_module(
                module, source, self.registry, self.class_names, self.attr_types
            )

        #: method name → [function keys] across the package.
        self.methods: Dict[str, List[str]] = {}
        #: (class, method) → function key.
        self.class_methods: Dict[Tuple[str, str], str] = {}
        #: function name → [module-level function keys].
        self.module_functions: Dict[str, List[str]] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        for facts in self.modules.values():
            for key, function in facts.functions.items():
                self.functions[key] = function
                if function.cls is None:
                    self.module_functions.setdefault(function.name, []).append(key)
                else:
                    self.methods.setdefault(function.name, []).append(key)
                    self.class_methods[(function.cls, function.name)] = key

    # -- call resolution ------------------------------------------------
    def resolve_call(self, caller: FunctionFacts, site: CallSite) -> Optional[str]:
        target = site.target
        if target[0] == "function":
            name = target[1]
            if name in self.class_names:  # ClassName(...) → __init__
                return self.class_methods.get((name, "__init__"))
            local = f"{caller.module}:{name}"
            if local in self.functions and self.functions[local].cls is None:
                return local
            keys = self.module_functions.get(name, [])
            if len(keys) == 1:
                return keys[0]
            return None
        _kind, owner, method = target
        if owner is not None:
            key = self.class_methods.get((owner, method))
            if key is not None:
                return key
        if method in COMMON_METHOD_NAMES:
            return None
        keys = self.methods.get(method, [])
        if len(keys) == 1:
            return keys[0]
        return None

    # -- transitive acquisition summaries -------------------------------
    def summaries(self) -> Dict[str, Dict[str, Tuple[LockSpec, Tuple]]]:
        """function key → {lock name: (spec, representative path)}.

        A path is a tuple of ``(function key, line)`` call steps ending at
        the acquiring function, then the acquisition line.
        """
        summary: Dict[str, Dict[str, Tuple[LockSpec, Tuple]]] = {
            key: {} for key in self.functions
        }
        for key, function in self.functions.items():
            for acquire in function.acquires:
                summary[key].setdefault(
                    acquire.spec.name, (acquire.spec, ((key, acquire.line),))
                )
        changed = True
        iterations = 0
        while changed and iterations < len(self.functions) + 10:
            changed = False
            iterations += 1
            for key, function in self.functions.items():
                for site in function.calls:
                    callee = self.resolve_call(function, site)
                    if callee is None:
                        continue
                    for lock_name, (spec, path) in summary[callee].items():
                        if lock_name not in summary[key]:
                            summary[key][lock_name] = (
                                spec,
                                ((key, site.line),) + path,
                            )
                            changed = True
        return summary

    # -- checks ----------------------------------------------------------
    def _violates(self, held: LockSpec, acquired: LockSpec) -> bool:
        if acquired.level > held.level:
            return False
        if acquired.name == held.name and acquired.kind == KIND_RLOCK:
            return False  # re-entry of the same re-entrant lock
        return True

    def _report(self, rule: str, module: str, line: int, message: str) -> None:
        comment_map = self.modules[module].comment_map if module in self.modules else CommentMap()
        if comment_map.suppressed(line, rule):
            return
        self.findings.append(Finding(rule, module, line, message))

    @staticmethod
    def _render_path(path: Tuple) -> str:
        steps = [f"{key} (line {line})" for key, line in path]
        return " -> ".join(steps)

    def run(self) -> List[Finding]:
        self.findings = list(self.syntax_errors)
        self._check_constructions()
        self._check_suppression_comments()
        edges: Set[Tuple[str, str]] = set()
        edge_sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
        summary = self.summaries()

        for key, function in self.functions.items():
            for acquire in function.acquires:
                for held in acquire.held:
                    edges.add((held.name, acquire.spec.name))
                    edge_sites.setdefault(
                        (held.name, acquire.spec.name), (function.module, acquire.line)
                    )
                    if self._violates(held, acquire.spec):
                        self._report(
                            "inversion",
                            function.module,
                            acquire.line,
                            f"acquires {acquire.spec.name!r} (level "
                            f"{acquire.spec.level}) while holding {held.name!r} "
                            f"(level {held.level}) in {key}",
                        )
            for site in function.calls:
                if not site.held:
                    continue
                callee = self.resolve_call(function, site)
                if callee is None:
                    continue
                for lock_name, (spec, path) in summary[callee].items():
                    for held in site.held:
                        edges.add((held.name, spec.name))
                        edge_sites.setdefault(
                            (held.name, spec.name), (function.module, site.line)
                        )
                        if self._violates(held, spec):
                            self._report(
                                "inversion",
                                function.module,
                                site.line,
                                f"call path acquires {spec.name!r} (level "
                                f"{spec.level}) while {key} holds "
                                f"{held.name!r} (level {held.level}); path: "
                                f"{key} (line {site.line}) -> "
                                f"{self._render_path(path)}",
                            )
        self._check_cycles(edges, edge_sites)
        self._check_unresolved()
        return self.findings

    def _check_constructions(self) -> None:
        constructed: Set[str] = set()
        for module, facts in self.modules.items():
            factory_module = module == FACTORY_MODULE
            for line, kind in facts.raw_constructions:
                if factory_module:
                    continue
                self._report(
                    "undeclared-lock",
                    module,
                    line,
                    f"raw threading.{kind}() construction; build it with "
                    f"repro.analysis.runtime.make_{kind.lower()}(\"Owner.attr\") "
                    "and declare it in repro.analysis.registry",
                )
            for line, kind, literal in facts.factory_calls:
                if literal is None:
                    self._report(
                        "unknown-lock-name",
                        module,
                        line,
                        f"make_{kind.lower()}() needs a string-literal registry "
                        "name as its first argument",
                    )
                    continue
                spec = self.registry.by_name.get(literal)
                if spec is None:
                    self._report(
                        "unknown-lock-name",
                        module,
                        line,
                        f"lock name {literal!r} is not declared in the registry",
                    )
                    continue
                constructed.add(literal)
                if spec.kind != kind:
                    self._report(
                        "unknown-lock-name",
                        module,
                        line,
                        f"lock {literal!r} is registered as a {spec.kind} but "
                        f"constructed as a {kind}",
                    )
        if any(facts.factory_calls for facts in self.modules.values()):
            for spec in self.registry.locks:
                if spec.name not in constructed and spec.module in self.modules:
                    self._report(
                        "stale-registry",
                        spec.module,
                        1,
                        f"registry declares {spec.name!r} but no construction "
                        "site remains in the tree",
                    )

    def _check_suppression_comments(self) -> None:
        for module, facts in self.modules.items():
            for line, text in facts.comment_map.malformed.items():
                self.findings.append(
                    Finding(
                        "bad-suppression",
                        module,
                        line,
                        "malformed lock-lint directive (use "
                        f"'# lock-lint: ignore[<rule>] — <reason>'): {text!r}",
                    )
                )

    def _check_unresolved(self) -> None:
        for module, facts in self.modules.items():
            for line, text in facts.unresolved:
                self._report(
                    "unresolved-lock",
                    module,
                    line,
                    f"cannot resolve lock expression {text!r} to a unique "
                    "registry entry; add a type hint on the receiver",
                )

    def _check_cycles(
        self,
        edges: Set[Tuple[str, str]],
        edge_sites: Dict[Tuple[str, str], Tuple[str, int]],
    ) -> None:
        graph: Dict[str, Set[str]] = {}
        for source, target in edges:
            if source == target:
                continue
            graph.setdefault(source, set()).add(target)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in graph}
        stack: List[str] = []
        reported: Set[frozenset] = set()

        def visit(name: str) -> None:
            color[name] = GRAY
            stack.append(name)
            for successor in sorted(graph.get(name, ())):
                if color.get(successor, WHITE) == GRAY:
                    cycle = stack[stack.index(successor):] + [successor]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        module, line = edge_sites.get(
                            (name, successor), ("<package>", 0)
                        )
                        self._report(
                            "cycle",
                            module,
                            line,
                            "lock acquisition cycle: " + " -> ".join(cycle),
                        )
                elif color.get(successor, WHITE) == WHITE:
                    visit(successor)
            stack.pop()
            color[name] = BLACK

        for name in sorted(graph):
            if color[name] == WHITE:
                visit(name)


def analyze(sources: Dict[str, str], registry: Optional[Registry] = None) -> List[Finding]:
    """Run the lock-order analysis; returns the findings (empty = clean)."""
    return Analysis(sources, registry).run()
