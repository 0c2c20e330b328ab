"""PKL rules: objects that cross the process pool must pickle.

``ParallelScenarioExecutor`` ships the target (with its plugins) to worker
processes by pickling it once per session; a target that does not pickle
stops a ``--workers N`` / ``--hosts`` campaign at its first batch with
``WorkerStartError``. These rules catch the usual causes (closures, test
doubles with lambdas) before the campaign runs:

- PKL001 — a lambda or locally-defined function passed directly into a
  pool entrypoint (executor constructors, ``submit``/``map``, batch
  execution, ``run_campaign``).
- PKL002 — a lambda stored on a pool-crossing class (a ``ToolPlugin`` or
  target subclass): as an attribute assignment, a class attribute, or an
  ``__init__`` default.
- PKL003 — a lambda or locally-defined closure stored on a
  *snapshot-captured* class (simulators, networks, nodes, deployments:
  everything reachable from ``SimSnapshot.capture``'s pickle). The
  capture raises on one, so the rule fires unless the class opts into custom pickling by defining
  ``__getstate__`` (the network's fused-send closures are the exemplar).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..findings import Finding
from .base import ModuleContext, Rule, register

#: Call targets whose arguments end up crossing the process boundary.
_POOL_CONSTRUCTORS = {"ParallelScenarioExecutor", "ProcessPoolExecutor"}
_POOL_FUNCTIONS = {"run_campaign"}
_POOL_METHODS = {"submit", "map", "execute_batch", "execute_batch_isolated"}

#: Base/class-name markers for types that get pickled into workers.
_PICKLED_BASE_MARKERS = ("ToolPlugin", "Target")


def _entrypoint_label(node: ast.Call, module: ModuleContext) -> Optional[str]:
    """Name of the pool entrypoint being called, or None."""
    name = module.resolve_call_name(node.func)
    if name is not None:
        terminal = name.rsplit(".", 1)[-1]
        if terminal in _POOL_CONSTRUCTORS or terminal in _POOL_FUNCTIONS:
            return terminal
    if isinstance(node.func, ast.Attribute) and node.func.attr in _POOL_METHODS:
        return node.func.attr
    return None


def _local_callables(function: ast.AST) -> Set[str]:
    """Names bound to nested functions or lambdas inside ``function``."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


@register
class PoolArgumentRule(Rule):
    rule_id = "PKL001"
    family = "PKL"
    description = "unpicklable callable passed to a pool entrypoint"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        enclosing: List[ast.AST] = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = _entrypoint_label(node, module)
            if label is None:
                continue
            local_names: Set[str] = set()
            for function in enclosing:
                span = (function.lineno, getattr(function, "end_lineno", function.lineno))
                if span[0] <= node.lineno <= span[1]:
                    local_names |= _local_callables(function)
            values = list(node.args) + [keyword.value for keyword in node.keywords]
            for value in values:
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        module,
                        value,
                        f"lambda passed to `{label}` cannot be pickled into "
                        "worker processes; use a module-level function",
                    )
                elif isinstance(value, ast.Name) and value.id in local_names:
                    yield self.finding(
                        module,
                        value,
                        f"locally-defined function `{value.id}` passed to "
                        f"`{label}` cannot be pickled into worker processes; "
                        "move it to module level",
                    )


def _is_pickled_class(node: ast.ClassDef) -> bool:
    if node.name.endswith("Target"):
        return True
    for base in node.bases:
        text = ast.unparse(base) if hasattr(ast, "unparse") else ""
        if any(marker in text for marker in _PICKLED_BASE_MARKERS):
            return True
        if text.rsplit(".", 1)[-1].endswith("Plugin"):
            return True
    return False


@register
class PickledAttributeRule(Rule):
    rule_id = "PKL002"
    family = "PKL"
    description = "lambda stored on a pool-crossing object"

    def _message(self, where: str) -> str:
        return (
            f"lambda {where} a pool-crossing class defeats target pickling "
            "(a campaign on workers cannot start); use a module-level "
            "function"
        )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_pickled_class(node):
                continue
            for statement in node.body:
                if isinstance(statement, ast.Assign) and isinstance(
                    statement.value, ast.Lambda
                ):
                    yield self.finding(
                        module, statement.value, self._message("as a class attribute of")
                    )
            for method in ast.walk(node):
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for default in list(method.args.defaults) + [
                    d for d in method.args.kw_defaults if d is not None
                ]:
                    if isinstance(default, ast.Lambda):
                        yield self.finding(
                            module,
                            default,
                            self._message("as a parameter default in"),
                        )
                for inner in ast.walk(method):
                    if (
                        isinstance(inner, ast.Assign)
                        and isinstance(inner.value, ast.Lambda)
                        and any(
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            for target in inner.targets
                        )
                    ):
                        yield self.finding(
                            module,
                            inner.value,
                            self._message("assigned to an attribute of"),
                        )


#: Name-suffix markers for classes whose instances are reachable from a
#: deployment pickle (``SimSnapshot.capture``). Matched against the class
#: name and its base names.
_SNAPSHOT_CLASS_MARKERS = (
    "Deployment",
    "Simulator",
    "Network",
    "Node",
    "Client",
    "Replica",
    "Endpoint",
)


def _is_snapshot_class(node: ast.ClassDef) -> bool:
    names = [node.name]
    for base in node.bases:
        if hasattr(ast, "unparse"):
            names.append(ast.unparse(base).rsplit(".", 1)[-1])
    return any(
        name.endswith(marker) for name in names for marker in _SNAPSHOT_CLASS_MARKERS
    )


def _defines_getstate(node: ast.ClassDef) -> bool:
    return any(
        isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name == "__getstate__"
        for statement in node.body
    )


@register
class SnapshotAttributeRule(Rule):
    rule_id = "PKL003"
    family = "PKL"
    description = "unpicklable callable stored on a snapshot-captured class"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_snapshot_class(node):
                continue
            if _defines_getstate(node):
                continue  # custom pickling: derived state is the class's business
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                local_names = _local_callables(method)
                for inner in ast.walk(method):
                    if not isinstance(inner, ast.Assign):
                        continue
                    if not any(
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        for target in inner.targets
                    ):
                        continue
                    value = inner.value
                    if isinstance(value, ast.Lambda):
                        yield self.finding(
                            module,
                            value,
                            f"lambda stored on snapshot-captured class "
                            f"`{node.name}` breaks SimSnapshot capture "
                            "(pickle); use a bound method, or define "
                            "__getstate__/__setstate__ that drop and rebuild it",
                        )
                    elif isinstance(value, ast.Name) and value.id in local_names:
                        yield self.finding(
                            module,
                            value,
                            f"locally-defined closure `{value.id}` stored on "
                            f"snapshot-captured class `{node.name}` breaks "
                            "SimSnapshot capture (pickle); use a bound method, "
                            "or define __getstate__/__setstate__ that drop and "
                            "rebuild it",
                        )


__all__ = ["PickledAttributeRule", "PoolArgumentRule", "SnapshotAttributeRule"]
