"""Rule: annotation coverage — scoped modules carry complete type
annotations (the locally runnable half of the mypy --strict gate)."""

from __future__ import annotations

import ast

from ..base import AnalysisConfig, Finding, Rule
from ..project import Project

__all__ = ["AnnotationsRule"]


class AnnotationsRule(Rule):
    """Every parameter and return in scoped modules is annotated."""

    name = "annotations"
    description = (
        "Modules in the annotation scope (the analysis package and the "
        "serve protocol) must annotate every parameter and return type "
        "so mypy --strict in CI has nothing to infer from context."
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Flag every unannotated parameter or return in scope."""
        findings: list[Finding] = []
        for mod in project.modules.values():
            if not config.in_annotation_scope(mod.name):
                continue
            path = str(mod.path)
            classes = [n for n in mod.nodes if isinstance(n, ast.ClassDef)]
            methods = {item for cls in classes for item in cls.body}
            for node in mod.nodes:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                in_class = node in methods
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                for index, arg in enumerate(positional):
                    if in_class and index == 0 and arg.arg in ("self", "cls"):
                        continue
                    if arg.annotation is None:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=node.name,
                                message=f"parameter {arg.arg!r} is unannotated",
                            )
                        )
                for arg in args.kwonlyargs:
                    if arg.annotation is None:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=node.name,
                                message=f"parameter {arg.arg!r} is unannotated",
                            )
                        )
                for vararg in (args.vararg, args.kwarg):
                    if vararg is not None and vararg.annotation is None:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=path,
                                line=node.lineno,
                                symbol=node.name,
                                message=f"parameter {vararg.arg!r} is unannotated",
                            )
                        )
                if node.returns is None:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=path,
                            line=node.lineno,
                            symbol=node.name,
                            message="return type is unannotated",
                        )
                    )
        return findings
