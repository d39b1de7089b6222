"""Rule: every shared-memory creation must be reachable from a
``close()``/``unlink()``/finalizer path — leaked ``/dev/shm`` segments
outlive the process."""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..base import AnalysisConfig, Finding, Rule
from ..project import ClassInfo, FunctionInfo, Project, _dotted

__all__ = ["ShmLifecycleRule"]

#: Call tails treated as shared-memory resource creation.
_CREATOR_TAILS = ("SharedMemory", "SharedMemoryStore")
#: Methods that count as a release path when they touch the attribute.
_RELEASE_METHODS = ("close", "shutdown", "stop", "unlink", "__del__", "__exit__")
#: Registering with one of these also counts as a release path.
_FINALIZER_CALLS = ("finalize", "register")


@dataclass
class _Creation:
    """One shared-memory creation site and how its value is bound."""

    fn: FunctionInfo
    node: ast.Call
    what: str


class ShmLifecycleRule(Rule):
    """No shared-memory segment without a reachable release path."""

    name = "shm-lifecycle"
    description = (
        "Every SharedMemory/SharedMemoryStore creation must be stored "
        "somewhere a close()/unlink()/finalizer path reaches: an "
        "attribute touched by the owning class's close/shutdown/__del__, "
        "a local that is closed, returned, or handed to a finalizer."
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Trace each creation to a release path (or flag it)."""
        creator_keys = set(_CREATOR_TAILS)
        # Factory propagation: a function returning a creation is itself
        # a creator; its call sites are checked like direct creations.
        for _ in range(3):
            grew = False
            for fn in project.functions.values():
                if fn.key in creator_keys:
                    continue
                if self._returns_creation(project, fn, creator_keys):
                    creator_keys.add(fn.key)
                    creator_keys.add(fn.qualname.rpartition(".")[2] or fn.qualname)
                    grew = True
            if not grew:
                break

        findings: list[Finding] = []
        for fn in project.functions.values():
            for creation in self._creations(project, fn, creator_keys):
                finding = self._check_creation(project, creation)
                if finding is not None:
                    findings.append(finding)
        return findings

    # -- creation discovery --------------------------------------------------

    def _is_creator_call(
        self, project: Project, fn: FunctionInfo, call: ast.Call, creator_keys: set[str]
    ) -> bool:
        dotted = _dotted(call.func)
        if dotted is None:
            return False
        tail = dotted.rpartition(".")[2]
        if tail in _CREATOR_TAILS:
            return True
        key = project.resolve_name(fn.module, dotted)
        if key is not None and key in creator_keys:
            return True
        # self._factory(...) within the same class.
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
            and fn.cls is not None
        ):
            method = project.find_method(fn.cls.key, call.func.attr)
            if method is not None and method.key in creator_keys:
                return True
        return tail in creator_keys

    def _returns_creation(
        self, project: Project, fn: FunctionInfo, creator_keys: set[str]
    ) -> bool:
        returned_names: set[str] = set()
        created_names: set[str] = set()
        direct = False
        for node in fn.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call) and self._is_creator_call(
                    project, fn, node.value, creator_keys
                ):
                    direct = True
                elif isinstance(node.value, ast.Name):
                    returned_names.add(node.value.id)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_creator_call(project, fn, node.value, creator_keys):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            created_names.add(target.id)
        return direct or bool(returned_names & created_names)

    def _creations(
        self, project: Project, fn: FunctionInfo, creator_keys: set[str]
    ) -> "list[_Creation]":
        if self._returns_creation(project, fn, creator_keys):
            return []  # the factory itself is exempt; call sites are checked
        out: list[_Creation] = []
        for node in fn.nodes:
            if isinstance(node, ast.Call) and self._is_creator_call(
                project, fn, node, creator_keys
            ):
                what = _dotted(node.func) or "<shared-memory>"
                out.append(_Creation(fn=fn, node=node, what=what))
        return out

    # -- release-path verification -------------------------------------------

    def _check_creation(self, project: Project, creation: _Creation) -> "Finding | None":
        fn = creation.fn
        binding = self._binding(fn, creation.node)
        path = str(project.modules[fn.module].path)

        if binding is None:
            return Finding(
                rule=self.name,
                path=path,
                line=creation.node.lineno,
                symbol=fn.key,
                message=(
                    f"{creation.what}(...) is created without binding the "
                    "handle; nothing can ever close/unlink it"
                ),
            )
        kind, name = binding
        if kind == "self":
            if fn.cls is not None and self._class_releases(project, fn.cls, name):
                return None
            return Finding(
                rule=self.name,
                path=path,
                line=creation.node.lineno,
                symbol=f"{fn.cls.key if fn.cls else fn.key}.{name}",
                message=(
                    f"{creation.what}(...) stored on self.{name} but no "
                    "close/shutdown/__del__/__exit__ method releases it"
                ),
            )
        # Local binding: released, finalized, or returned in this function?
        if self._local_released(fn, name):
            return None
        return Finding(
            rule=self.name,
            path=path,
            line=creation.node.lineno,
            symbol=fn.key,
            message=(
                f"{creation.what}(...) bound to local {name!r} is neither "
                "closed, returned, stored, nor registered with a finalizer"
            ),
        )

    def _binding(
        self, fn: FunctionInfo, call: ast.Call
    ) -> "tuple[str, str] | None":
        for node in fn.nodes:
            if isinstance(node, ast.Assign) and node.value is call:
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return ("self", target.attr)
                    if isinstance(target, ast.Name):
                        return ("local", target.id)
            # self.buffers.append(creation) binds through the container.
            if (
                isinstance(node, ast.Call)
                and node.args
                and node.args[0] is call
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "add", "appendleft")
            ):
                inner = node.func.value
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    return ("self", inner.attr)
        return None

    def _class_releases(self, project: Project, cls: ClassInfo, attr: str) -> bool:
        """Does any release method (transitively via self-calls) touch attr?"""
        for info in project.mro(cls.key):
            for method_name in _RELEASE_METHODS:
                method = project.find_method(info.key, method_name)
                if method is not None and self._touches_attr(
                    project, method, attr, depth=2
                ):
                    return True
        return False

    def _touches_attr(
        self, project: Project, fn: FunctionInfo, attr: str, depth: int
    ) -> bool:
        for node in fn.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
            if (
                depth > 0
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and fn.cls is not None
            ):
                callee = project.find_method(fn.cls.key, node.func.attr)
                if callee is not None and self._touches_attr(
                    project, callee, attr, depth - 1
                ):
                    return True
        return False

    def _local_released(self, fn: FunctionInfo, name: str) -> bool:
        for node in fn.nodes:
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                if node.value.id == name:
                    return True
            if isinstance(node, ast.Call):
                func = node.func
                # name.close() / name.unlink()
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("close", "unlink")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                ):
                    return True
                # weakref.finalize(obj, name.close) / atexit.register(...)
                dotted = _dotted(func)
                if dotted and dotted.rpartition(".")[2] in _FINALIZER_CALLS:
                    for arg in ast.walk(node):
                        if isinstance(arg, ast.Name) and arg.id == name:
                            return True
                # Stored or passed onward: any call argument mentioning it
                # hands ownership elsewhere (constructor wrapping).
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
            # Stored onto self: self.x = name
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                if node.value.id == name:
                    return True
            # with-statement management: with creation as name / ExitStack.
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name
                    ):
                        return True
        return False
