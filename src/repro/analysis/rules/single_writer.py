"""Rule: single-writer dispatch — head/tail pointer mutations and
circular-buffer mutators stay inside the buffer + dispatch layers."""

from __future__ import annotations

import ast

from ..base import AnalysisConfig, Finding, Rule
from ..project import Project

__all__ = ["SingleWriterRule"]

#: Circular-buffer pointer attributes only the owning layer may store to.
_POINTER_ATTRS = ("head", "tail")
#: Buffer mutators whose call sites are restricted to the dispatch layer.
_MUTATORS = ("insert", "release")
#: Dispatcher task-cut entry points (one dispatching thread per query).
_TASK_CUTTERS = ("create_task", "shed_task")


class SingleWriterRule(Rule):
    """SABER's single dispatching writer per circular buffer (§4.1)."""

    name = "single-writer"
    description = (
        "Buffer head/tail pointers may only be stored from the buffer "
        "module itself; buffer construction and insert/release calls "
        "are restricted to the buffer + dispatcher modules; task cuts "
        "are restricted to the dispatch layer."
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Scan every module for out-of-layer buffer mutations."""
        findings: list[Finding] = []
        buffer_modules = config.single_writer_buffer_modules
        dispatch_modules = config.single_writer_dispatch_modules
        if not buffer_modules:
            return findings
        writer_modules = buffer_modules + dispatch_modules
        buffer_classes = {
            info.key
            for info in project.classes.values()
            if info.module in buffer_modules
        }

        for mod in project.modules.values():
            path = str(mod.path)
            in_buffer = mod.name in buffer_modules
            in_writer = mod.name in writer_modules

            if not in_buffer:
                for node in mod.nodes:
                    target: "ast.expr | None" = None
                    if isinstance(node, ast.Assign):
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Attribute):
                                target = tgt
                    elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Attribute
                    ):
                        target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _POINTER_ATTRS
                    ):
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=target.attr,
                                message=(
                                    f"store to .{target.attr} outside the buffer "
                                    f"module(s) {', '.join(buffer_modules)} breaks "
                                    "single-writer pointer ownership"
                                ),
                            )
                        )

            for fn in project.functions.values():
                if fn.module != mod.name:
                    continue
                ctx = project.function_context(fn)
                for node in fn.nodes:
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    # Buffer construction outside the writer layer.
                    if isinstance(func, ast.Name) and not in_writer:
                        key = project.resolve_name(mod.name, func.id)
                        if key in buffer_classes:
                            findings.append(
                                Finding(
                                    rule=self.name,
                                    path=path,
                                    line=node.lineno,
                                    symbol=key.rpartition(".")[2],
                                    message=(
                                        f"{key} constructed outside the buffer/"
                                        "dispatcher layer; buffers belong to the "
                                        "dispatching thread"
                                    ),
                                )
                            )
                        continue
                    if not isinstance(func, ast.Attribute):
                        continue
                    owner = project.infer_expr_type(mod.name, func.value, ctx)
                    if owner is None:
                        continue
                    if func.attr in _MUTATORS and owner in buffer_classes and not in_writer:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=f"{owner.rpartition('.')[2]}.{func.attr}",
                                message=(
                                    f"call to buffer mutator .{func.attr}() outside "
                                    "the buffer/dispatcher layer violates "
                                    "single-writer dispatch"
                                ),
                            )
                        )
                    elif (
                        func.attr in _TASK_CUTTERS
                        and owner.rpartition(".")[2] == "Dispatcher"
                        and mod.name not in dispatch_modules
                    ):
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=f"Dispatcher.{func.attr}",
                                message=(
                                    f".{func.attr}() outside the dispatch layer: "
                                    "only the dispatching thread may cut tasks"
                                ),
                            )
                        )
        return findings
