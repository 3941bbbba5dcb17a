"""``# guarded-by:`` — static checking of shared-attribute writes.

Shared mutable attributes are annotated at their initialisation site::

    self._records = []  # guarded-by: CommitFeed._lock

From then on every **write** to ``self._records`` anywhere in the class — an
assignment, an augmented assignment, a ``del``, a subscript store, or a
call of a known mutator method (``append``, ``pop``, ``update``, …) — must
be one of:

* lexically inside a ``with`` statement that resolves to the declared
  lock (resolution rules are shared with :mod:`repro.analysis.lockorder`);
* inside a function annotated ``# requires: <lock>`` (on its ``def`` line
  or the line directly above) — the annotation asserts every caller holds
  the lock, and the lock-order analyzer sees those callers' ``with``
  blocks;
* inside ``__init__`` of the owning class (construction is single-threaded
  by definition);
* suppressed with ``# lock-lint: ignore[unguarded-write] — <reason>``.

Anything else is an ``unguarded-write`` finding.  Reads are deliberately
out of scope: the codebase's read paths are lock-free by design (atomic
dict/tuple snapshots), and flagging them would force suppressions on
every hot path.
"""

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lockorder import (
    UNRESOLVED,
    CommentMap,
    Finding,
    Registry,
    Scope,
    _collect_attr_types,
    _parameter_annotations,
    resolve_lock,
    scan_comments,
)

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")
_REQUIRES = re.compile(r"#\s*requires:\s*([A-Za-z_][\w.]*)")

#: Method calls on an attribute that mutate it in place.
MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "__setitem__",
    "__delitem__", "appendleft", "popleft",
}


@dataclass(frozen=True)
class GuardDecl:
    cls: str
    attribute: str
    lock_name: str
    line: int


def _declared_guards(
    module: str,
    tree: ast.Module,
    comments: CommentMap,
    registry: Registry,
    findings: List[Finding],
) -> Dict[Tuple[str, str], GuardDecl]:
    """Collect ``# guarded-by:`` declarations from assignment lines."""
    guards: Dict[Tuple[str, str], GuardDecl] = {}
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for node in ast.walk(class_node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            comment = comments.comments.get(node.lineno, "")
            match = _GUARDED_BY.search(comment)
            if not match:
                continue
            lock_name = match.group(1)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            attribute: Optional[str] = None
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attribute = target.attr
            if attribute is None:
                findings.append(
                    Finding(
                        "bad-guard",
                        module,
                        node.lineno,
                        "guarded-by comment on a line that does not assign a "
                        "self attribute",
                    )
                )
                continue
            if lock_name not in registry.by_name:
                findings.append(
                    Finding(
                        "bad-guard",
                        module,
                        node.lineno,
                        f"guarded-by names unregistered lock {lock_name!r}",
                    )
                )
                continue
            guards[(class_node.name, attribute)] = GuardDecl(
                class_node.name, attribute, lock_name, node.lineno
            )
    return guards


def _function_requirements(
    node: ast.FunctionDef, comments: CommentMap
) -> Set[str]:
    """Locks a ``# requires:`` annotation asserts are held on entry."""
    required: Set[str] = set()
    for line in (node.lineno, node.lineno - 1):
        comment = comments.comments.get(line, "")
        for match in _REQUIRES.finditer(comment):
            required.add(match.group(1))
    # Decorated functions: the def line is below the decorators.
    if node.decorator_list:
        for line in (node.body[0].lineno - 1,):
            comment = comments.comments.get(line, "")
            for match in _REQUIRES.finditer(comment):
                required.add(match.group(1))
    return required


class _WriteChecker(ast.NodeVisitor):
    """Finds writes to guarded ``self.<attr>`` outside the declared lock."""

    def __init__(
        self,
        module: str,
        cls: str,
        function: ast.FunctionDef,
        guards: Dict[Tuple[str, str], GuardDecl],
        required: Set[str],
        scope: Scope,
        registry: Registry,
        comments: CommentMap,
        findings: List[Finding],
    ) -> None:
        self.module = module
        self.cls = cls
        self.function = function
        self.guards = guards
        self.required = required
        self.scope = scope
        self.registry = registry
        self.comments = comments
        self.findings = findings
        self.held_names: List[str] = []
        self.is_init = function.name == "__init__"

    # -- held tracking (with blocks only; mirrors the lockorder walker) --
    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            resolved = resolve_lock(item.context_expr, self.scope, self.registry)
            if resolved is not None and resolved is not UNRESOLVED:
                self.held_names.append(resolved.name)
                pushed += 1
        for statement in node.body:
            self.visit(statement)
        for _ in range(pushed):
            self.held_names.pop()

    visit_AsyncWith = visit_With

    # -- write sites -----------------------------------------------------
    def _self_attribute(self, node: ast.expr) -> Optional[str]:
        """``attr`` when *node* is ``self.attr`` (or targets its contents)."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _check_write(self, attribute: Optional[str], line: int, what: str) -> None:
        if attribute is None:
            return
        declaration = self.guards.get((self.cls, attribute))
        if declaration is None:
            return
        if self.is_init or line == declaration.line:
            return  # the declaration site itself is the initialisation write
        lock_name = declaration.lock_name
        if lock_name in self.held_names or lock_name in self.required:
            return
        if self.comments.suppressed(line, "unguarded-write"):
            return
        self.findings.append(
            Finding(
                "unguarded-write",
                self.module,
                line,
                f"{what} of self.{attribute} (guarded by {lock_name!r}) in "
                f"{self.cls}.{self.function.name} outside the lock; wrap it "
                f"in 'with ...' or annotate the function '# requires: "
                f"{lock_name}'",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(self._self_attribute(target), node.lineno, "write")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(self._self_attribute(node.target), node.lineno, "write")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write(self._self_attribute(node.target), node.lineno, "write")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write(self._self_attribute(target), node.lineno, "delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        function = node.func
        if isinstance(function, ast.Attribute) and function.attr in MUTATORS:
            self._check_write(
                self._self_attribute(function.value), node.lineno, f"{function.attr}()"
            )
        self.generic_visit(node)

    # Nested defs inherit the lexical held set (thunks run under the same
    # or a deeper lock — the same approximation the lockorder walker makes).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for statement in node.body:
            self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


def check_guards(
    sources: Dict[str, str], registry: Optional[Registry] = None
) -> List[Finding]:
    """Run the guarded-write check over *sources*; returns findings."""
    registry = registry or Registry()
    findings: List[Finding] = []

    class_names: Set[str] = set()
    trees: Dict[str, ast.Module] = {}
    for module, source in sorted(sources.items()):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # lockorder reports it
        trees[module] = tree
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                class_names.add(node.name)
    attr_types: Dict[Tuple[str, str], str] = {}
    for tree in trees.values():
        attr_types.update(_collect_attr_types(tree, class_names))

    for module, tree in sorted(trees.items()):
        comments = scan_comments(sources[module])
        guards = _declared_guards(module, tree, comments, registry, findings)
        if not guards:
            continue
        for class_node in tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            for function in class_node.body:
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                required = _function_requirements(function, comments)
                scope = Scope(
                    module,
                    class_node.name,
                    _parameter_annotations(function),
                    attr_types,
                )
                checker = _WriteChecker(
                    module,
                    class_node.name,
                    function,
                    guards,
                    required,
                    scope,
                    registry,
                    comments,
                    findings,
                )
                for statement in function.body:
                    checker.visit(statement)
    return findings
