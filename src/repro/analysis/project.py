"""Project model: parsed modules, classes, and best-effort type inference.

The analyzer works on plain ``ast`` trees — nothing is imported or
executed.  Module names are dotted paths relative to the scanned root
with a leading ``repro`` package component stripped, so the real tree
and small fixture trees in tests produce the same shape of names
(``core.executor``, ``metrics.registry``, ...).

Type inference is deliberately best-effort and conservative: it
resolves project classes through constructor calls, parameter / return
annotations, and ``self.x = ...`` assignments, and gives up (returns
``None``) on anything else.  Rules must treat an unresolved type as
"unknown", never as "safe" or "violating" — the runtime lockdep half
covers what static resolution cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .base import inline_suppressions

__all__ = ["ClassInfo", "FunctionInfo", "Module", "Project"]


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    name: str
    tree: ast.Module
    source_lines: list[str]
    is_package: bool = False
    #: local name -> dotted target ("api.session.SaberSession", "threading", ...)
    imports: dict[str, str] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> "list[ast.AST]":
        """Every node of the tree in ``ast.walk`` order, walked once."""
        return list(ast.walk(self.tree))

    def suppressions(self) -> "dict[int, set[str]]":
        """Inline ``# repro: allow(...)`` comments, by line."""
        return inline_suppressions(self.source_lines)


@dataclass
class ClassInfo:
    """One class definition with its methods and declared attributes."""

    module: str
    name: str
    node: ast.ClassDef
    base_exprs: list[ast.expr] = field(default_factory=list)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: class-level ``attr: Annotation`` declarations (dataclass fields).
    attr_annotations: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Project-wide class key, ``module.ClassName``."""
        return f"{self.module}.{self.name}" if self.module else self.name


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str
    node: ast.FunctionDef
    cls: "ClassInfo | None" = None

    @property
    def key(self) -> str:
        """Project-wide function key, ``module.Class.method`` or ``module.func``."""
        return f"{self.module}.{self.qualname}" if self.module else self.qualname

    @cached_property
    def nodes(self) -> "list[ast.AST]":
        """Every node of the definition in ``ast.walk`` order, walked once."""
        return list(ast.walk(self.node))


def _module_name(file: Path, root: Path) -> "tuple[str, bool]":
    """Dotted module name for ``file`` relative to ``root`` (and
    whether it is a package ``__init__``), stripping a leading
    ``repro`` component so node names match across real and fixture
    trees."""
    parts = list(file.relative_to(root).parts)
    parts[-1] = parts[-1][: -len(".py")]
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if parts and parts[0] == "repro":
        parts = parts[1:]
    return ".".join(parts), is_package


class Project:
    """A set of parsed modules with cross-module resolution helpers."""

    def __init__(self, root: Path, docs_dir: "Path | None" = None) -> None:
        self.root = root
        self.docs_dir = docs_dir
        self.modules: dict[str, Module] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: inferred attribute types: (class key, attr) -> class key.
        self.attr_types: dict[tuple[str, str], str] = {}

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, paths: "list[Path]", docs_dir: "Path | None" = None) -> "Project":
        """Parse every ``*.py`` file under ``paths`` into one project.

        ``paths`` may be directories (scanned recursively) or files.
        The first path's directory is the root module names are
        computed against; pass the ``src`` directory (or the package
        directory) for the real tree.
        """
        if not paths:
            raise ValueError("Project.load needs at least one path")
        first = paths[0]
        root = first if first.is_dir() else first.parent
        if docs_dir is None:
            for candidate in (root.parent / "docs", root / "docs"):
                if candidate.is_dir():
                    docs_dir = candidate
                    break
        project = cls(root, docs_dir)
        seen: set[Path] = set()
        for path in paths:
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                base = root if file.is_relative_to(root) else file.parent
                project._add_file(file, base)
        project._infer_attr_types()
        return project

    def _add_file(self, file: Path, root: Path) -> None:
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(file))
        name, is_package = _module_name(file, root)
        module = Module(
            path=file,
            name=name,
            tree=tree,
            source_lines=source.splitlines(),
            is_package=is_package,
        )
        self.modules[name] = module
        self._index_imports(module)
        self._index_definitions(module)

    def _index_imports(self, module: Module) -> None:
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = _strip_repro(alias.name)
                    module.imports[alias.asname or alias.name.split(".")[0]] = target
            elif isinstance(node, ast.ImportFrom):
                base = _strip_repro(node.module or "")
                if node.level:
                    package = module.name if module.is_package else _parent(module.name)
                    for _ in range(node.level - 1):
                        package = _parent(package)
                    base = f"{package}.{base}".strip(".") if base else package
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    module.imports[alias.asname or alias.name] = target

    def _index_definitions(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(module=module.name, name=node.name, node=node)
                info.base_exprs = list(node.bases)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if isinstance(item, ast.FunctionDef):
                            info.methods[item.name] = item
                            fn = FunctionInfo(
                                module=module.name,
                                qualname=f"{node.name}.{item.name}",
                                node=item,
                                cls=info,
                            )
                            self.functions[fn.key] = fn
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        info.attr_annotations[item.target.id] = item.annotation
                self.classes[info.key] = info
            elif isinstance(node, ast.FunctionDef):
                fn = FunctionInfo(module=module.name, qualname=node.name, node=node)
                self.functions[fn.key] = fn

    # -- resolution ----------------------------------------------------------

    def resolve_name(self, module: str, name: str) -> "str | None":
        """Resolve a local ``name`` in ``module`` to a project entity key.

        Follows import chains (including package ``__init__``
        re-exports) a bounded number of hops; returns the class or
        function key, or ``None`` for externals."""
        target = f"{module}.{name}" if module else name
        for _ in range(6):
            if target in self.classes or target in self.functions:
                return target
            mod, _, attr = target.rpartition(".")
            while mod and mod not in self.modules:
                # ``a.b.c.X`` may really be module ``a.b`` + nested attr.
                mod, _, rest = mod.rpartition(".")
                attr = f"{rest}.{attr}"
            if not mod or "." in attr:
                return None
            imported = self.modules[mod].imports.get(attr)
            if imported is None or imported == target:
                qualified = f"{mod}.{attr}"
                if qualified != target and (
                    qualified in self.classes or qualified in self.functions
                ):
                    return qualified
                return None
            target = imported
        return None

    def mro(self, class_key: str) -> "list[ClassInfo]":
        """The class plus its resolvable project bases, nearest first."""
        result: list[ClassInfo] = []
        queue = [class_key]
        seen: set[str] = set()
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            result.append(info)
            for base in info.base_exprs:
                base_key = self._annotation_key(info.module, base)
                if base_key:
                    queue.append(base_key)
        return result

    def find_method(self, class_key: str, name: str) -> "FunctionInfo | None":
        """Look up a method through the project-visible MRO."""
        for info in self.mro(class_key):
            if name in info.methods:
                return self.functions.get(f"{info.key}.{name}".lstrip("."))
        return None

    def _annotation_key(self, module: str, expr: "ast.expr | None") -> "str | None":
        """Best-effort: resolve a type annotation to a project class key."""
        if expr is None:
            return None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Name):
            key = self.resolve_name(module, expr.id)
            return key if key in self.classes else None
        if isinstance(expr, ast.Attribute):
            dotted = _dotted(expr)
            if dotted is None:
                return None
            key = self.resolve_name(module, dotted)
            return key if key in self.classes else None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            return self._annotation_key(module, expr.left) or self._annotation_key(
                module, expr.right
            )
        if isinstance(expr, ast.Subscript):
            dotted = _dotted(expr.value)
            if dotted in ("Optional", "typing.Optional") and isinstance(
                expr.slice, (ast.Name, ast.Attribute, ast.Constant)
            ):
                return self._annotation_key(module, expr.slice)
        return None

    # -- type inference ------------------------------------------------------

    def class_attr_type(self, class_key: str, attr: str) -> "str | None":
        """Inferred type of ``self.attr`` for ``class_key`` (or bases)."""
        for info in self.mro(class_key):
            inferred = self.attr_types.get((info.key, attr))
            if inferred:
                return inferred
            annotation = info.attr_annotations.get(attr)
            if annotation is not None:
                key = self._annotation_key(info.module, annotation)
                if key:
                    return key
        return None

    def param_types(self, fn: FunctionInfo) -> "dict[str, str]":
        """Parameter name -> class key, from annotations."""
        types: dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            key = self._annotation_key(fn.module, arg.annotation)
            if key:
                types[arg.arg] = key
        return types

    def return_type(self, fn: FunctionInfo) -> "str | None":
        """Declared return type as a project class key, if resolvable."""
        return self._annotation_key(fn.module, fn.node.returns)

    def infer_call_type(
        self, module: str, call: ast.Call, ctx: "_ExprContext"
    ) -> "str | None":
        """Type of a call expression: constructed class or return annotation."""
        func = call.func
        if isinstance(func, ast.Name):
            key = self.resolve_name(module, func.id)
            if key in self.classes:
                return key
            fn = self.functions.get(key) if key else None
            return self.return_type(fn) if fn else None
        if isinstance(func, ast.Attribute):
            owner = self.infer_expr_type(module, func.value, ctx)
            if owner:
                method = self.find_method(owner, func.attr)
                return self.return_type(method) if method else None
            dotted = _dotted(func)
            if dotted:
                key = self.resolve_name(module, dotted)
                if key in self.classes:
                    return key
                fn = self.functions.get(key) if key else None
                return self.return_type(fn) if fn else None
        return None

    def infer_expr_type(
        self, module: str, expr: ast.expr, ctx: "_ExprContext"
    ) -> "str | None":
        """Best-effort type of an expression, as a project class key."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and ctx.self_class:
                return ctx.self_class
            return ctx.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.infer_expr_type(module, expr.value, ctx)
            if owner:
                return self.class_attr_type(owner, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self.infer_call_type(module, expr, ctx)
        return None

    def function_context(self, fn: FunctionInfo) -> "_ExprContext":
        """Resolution context for ``fn``: params plus simple local assigns."""
        ctx = _ExprContext(
            self_class=fn.cls.key if fn.cls else None, locals=self.param_types(fn)
        )
        for node in fn.nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                inferred = self.infer_expr_type(fn.module, node.value, ctx)
                if inferred:
                    ctx.locals.setdefault(node.targets[0].id, inferred)
        return ctx

    def _infer_attr_types(self) -> None:
        """Fixpoint over ``self.x = <expr>`` assignments in all methods."""
        for _ in range(6):
            changed = False
            for fn in self.functions.values():
                if fn.cls is None:
                    continue
                ctx = _ExprContext(self_class=fn.cls.key, locals=self.param_types(fn))
                for node in fn.nodes:
                    if not isinstance(node, ast.Assign):
                        continue
                    inferred = self.infer_expr_type(fn.module, node.value, ctx)
                    if inferred is None:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            slot = (fn.cls.key, target.attr)
                            if self.attr_types.get(slot) != inferred:
                                self.attr_types[slot] = inferred
                                changed = True
            if not changed:
                break


@dataclass
class _ExprContext:
    """Resolution context for :meth:`Project.infer_expr_type`."""

    self_class: "str | None" = None
    locals: dict[str, str] = field(default_factory=dict)


def _strip_repro(dotted: str) -> str:
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro.") :]
    return dotted


def _parent(dotted: str) -> str:
    return dotted.rpartition(".")[0]


def _dotted(expr: ast.expr) -> "str | None":
    """Flatten ``a.b.c`` attribute chains to a dotted string."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None
