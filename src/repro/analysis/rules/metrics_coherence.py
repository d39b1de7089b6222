"""Rule: metrics coherence — every series is written somewhere and
documented in the operations catalogue (and the catalogue names only
real series).

A series exists two ways (:mod:`repro.metrics.registry`): as a *pushed
instrument* (``registry.counter("name", ...)`` plus an ``inc``/``set``/
``observe`` site) or as a sample a *collector* reports at scrape time —
a ``("name", "counter" | "gauge" | "histogram", help, labels, value)``
tuple with a literal name.  For a collected series the tuple is both
its registration and its write site, provided the function holding it
is reachable (by name) from something passed to ``register_collector``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from ..base import AnalysisConfig, Finding, Rule
from ..project import Project

__all__ = ["MetricsCoherenceRule"]

#: Registration methods on the metrics registry.
_REGISTER_METHODS = ("counter", "gauge", "histogram")
#: Instrument methods that count as a write (increment/observe) site.
_WRITE_METHODS = ("inc", "add", "set", "observe")
#: Series names in code and docs follow the Prometheus convention.
_SERIES_RE = re.compile(r"\bsaber_[a-z0-9_]+\b")


@dataclass
class _Series:
    """One registered metric series and what we know about it."""

    name: str
    path: str
    line: int
    attrs: set[str] = field(default_factory=set)
    chained_write: bool = False
    #: functions holding a collector sample tuple for this series.
    collectors: set[str] = field(default_factory=set)


class MetricsCoherenceRule(Rule):
    """No dead or undocumented metric series."""

    name = "metrics-coherence"
    description = (
        "Every series registered via registry.counter/gauge/histogram "
        "must have at least one inc/add/set/observe site, every series "
        "a collector samples must sit in a function reachable from a "
        "register_collector call, and both kinds must appear in the docs "
        "metric catalogue; the catalogue must not name series that "
        "exist nowhere in the code."
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Cross-reference registrations, write sites, and the docs."""
        series: dict[str, _Series] = {}
        write_attrs: set[str] = set()
        #: function name -> names it references (its possible callees).
        references: dict[str, set[str]] = {}
        registered: set[str] = set()

        for mod in project.modules.values():
            scan_registrations = config.in_metrics_scope(mod.name)
            for fn in mod.nodes:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                references.setdefault(fn.name, set()).update(_names(fn))
                if not scan_registrations:
                    continue
                for node in ast.walk(fn):
                    name = _sample_name(node)
                    if name is not None:
                        series.setdefault(
                            name, _Series(name=name, path=str(mod.path), line=node.lineno)
                        ).collectors.add(fn.name)
            for node in mod.nodes:
                if not isinstance(node, ast.Call) or not isinstance(
                    node.func, ast.Attribute
                ):
                    continue
                attr = node.func.attr
                if (
                    scan_registrations
                    and attr in _REGISTER_METHODS
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    name = node.args[0].value
                    entry = series.setdefault(
                        name, _Series(name=name, path=str(mod.path), line=node.lineno)
                    )
                    # self.attr = registry.counter("name", ...) binds the
                    # series to an attribute we can match write sites on.
                    parent = _assign_target_attr(mod.nodes, node)
                    if parent is not None:
                        entry.attrs.add(parent)
                elif attr == "register_collector":
                    for arg in node.args:
                        registered.update(_names(arg))
                elif attr in _WRITE_METHODS:
                    owner = node.func.value
                    if isinstance(owner, ast.Attribute):
                        write_attrs.add(owner.attr)
                    elif isinstance(owner, ast.Name):
                        write_attrs.add(owner.id)
                    elif isinstance(owner, ast.Call) and isinstance(
                        owner.func, ast.Attribute
                    ):
                        # registry.counter("name").inc(...) — chained write.
                        if (
                            owner.func.attr in _REGISTER_METHODS
                            and owner.args
                            and isinstance(owner.args[0], ast.Constant)
                            and isinstance(owner.args[0].value, str)
                        ):
                            chained = series.setdefault(
                                owner.args[0].value,
                                _Series(
                                    name=owner.args[0].value,
                                    path=str(mod.path),
                                    line=node.lineno,
                                ),
                            )
                            chained.chained_write = True

        # Close the registered set over by-name references, so a helper a
        # registered collector delegates to counts as registered too.
        frontier = list(registered)
        while frontier:
            for name in references.get(frontier.pop(), ()):
                if name not in registered:
                    registered.add(name)
                    frontier.append(name)

        findings: list[Finding] = []
        for entry in series.values():
            if entry.collectors:
                if not entry.collectors & registered:
                    findings.append(
                        self._at(
                            entry,
                            f"metric series {entry.name!r} is sampled in "
                            f"{sorted(entry.collectors)} but no such function "
                            "is reachable from a register_collector call",
                        )
                    )
            elif not entry.chained_write and not (entry.attrs & write_attrs):
                findings.append(
                    self._at(
                        entry,
                        f"metric series {entry.name!r} is registered but "
                        "never incremented/observed anywhere",
                    )
                )

        findings.extend(self._check_docs(project, config, series))
        return findings

    def _at(self, entry: _Series, message: str, symbol: "str | None" = None) -> Finding:
        """A finding located at ``entry``'s registration (or sample) site."""
        return Finding(
            rule=self.name,
            path=entry.path,
            line=entry.line,
            symbol=entry.name if symbol is None else symbol,
            message=message,
        )

    def _check_docs(
        self, project: Project, config: AnalysisConfig, series: "dict[str, _Series]"
    ) -> list[Finding]:
        name = config.metrics_catalogue
        if name is None or not series:
            return []
        anchor = next(iter(series.values()))
        if project.docs_dir is None:
            message = f"no docs directory found, so the metric catalogue ({name}) cannot be checked"
            return [self._at(anchor, message, symbol=name)]
        catalogue = project.docs_dir / name
        if not catalogue.is_file():
            return [self._at(anchor, f"metric catalogue {catalogue} does not exist", symbol=name)]
        text = catalogue.read_text(encoding="utf-8")
        documented = set(_SERIES_RE.findall(text))
        findings = [
            self._at(
                entry,
                f"metric series {entry.name!r} is missing from the catalogue in {catalogue.name}",
            )
            for entry in series.values()
            if entry.name not in documented
        ]
        for ghost in sorted(documented - set(series)):
            findings.append(
                Finding(
                    rule=self.name,
                    path=str(catalogue),
                    line=_line_of(text, ghost),
                    symbol=ghost,
                    message=(
                        f"catalogue documents {ghost!r} but no such series is "
                        "registered in the code"
                    ),
                )
            )
        return findings


def _names(node: ast.AST) -> "set[str]":
    """Every bare name and attribute name mentioned under ``node``."""
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _sample_name(node: ast.AST) -> "str | None":
    """The series name if ``node`` is a literal collector sample tuple."""
    if not isinstance(node, ast.Tuple) or len(node.elts) != 5:
        return None
    name, kind = node.elts[:2]
    if (
        isinstance(name, ast.Constant)
        and isinstance(name.value, str)
        and _SERIES_RE.fullmatch(name.value)
        and isinstance(kind, ast.Constant)
        and kind.value in _REGISTER_METHODS
    ):
        return name.value
    return None


def _assign_target_attr(nodes: "list[ast.AST]", call: ast.Call) -> "str | None":
    """If ``call`` is the value of ``self.X = call`` (or ``X = call``)
    among the module's ``nodes``, return the bound attribute/variable name."""
    for node in nodes:
        if isinstance(node, ast.Assign) and node.value is call:
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    return target.attr
                if isinstance(target, ast.Name):
                    return target.id
    return None


def _line_of(text: str, needle: str) -> int:
    for index, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return index
    return 0
