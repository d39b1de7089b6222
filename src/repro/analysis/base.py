"""Rule framework: findings, the rule base class, and the project config.

A rule is a small class with a ``name``, a one-line ``description`` of
the invariant it guards, and a ``check(project, config)`` method that
returns :class:`Finding` objects.  The rule set ``repro check`` runs is
the explicit tuple :data:`repro.analysis.rules.RULES`.

A finding is accepted one way (see ``docs/analysis.md``): inline, by a
``# repro: allow(<rule>) -- <reason>`` comment on the flagged line or
the line directly above it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .project import Project


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        """``path:line: rule: message`` — the CLI's text format."""
        location = f"{self.path}:{self.line}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule}:{symbol} {self.message}"


@dataclass(frozen=True)
class DeclaredEdge:
    """A lock-order edge the analyzer cannot see statically.

    The engine wires several cross-component calls through callable
    attributes (``on_release``, ``on_emit``, result sinks); each such
    hook that acquires a lock while another is held is declared here
    with a written justification, reviewed like code.
    """

    src: str
    dst: str
    reason: str


@dataclass(frozen=True)
class AnalysisConfig:
    """Project-specific knowledge the generic rules are parameterised by.

    Tests build small custom configs around fixture trees; the real
    tree uses :data:`DEFAULT_CONFIG`.
    """

    #: Module prefixes where every lock must be created via
    #: ``make_lock``/``make_condition`` with its canonical name.
    lock_modules: tuple[str, ...] = ()
    #: Documented lock ranking, outermost (acquired first) to innermost.
    lock_order: tuple[str, ...] = ()
    #: Lock-order edges exercised only through dynamic dispatch.
    declared_edges: tuple[DeclaredEdge, ...] = ()
    #: Module names (dotted, no trailing dot) allowed to mutate
    #: head/tail pointers and call buffer mutators.
    single_writer_buffer_modules: tuple[str, ...] = ()
    #: Module names additionally allowed to *call* buffer mutators and
    #: cut tasks (the dispatching layer).
    single_writer_dispatch_modules: tuple[str, ...] = ()
    #: Module prefixes scanned for metric registrations.
    metrics_modules: tuple[str, ...] = ()
    #: Docs file (relative to the docs dir) that must catalogue every
    #: registered metric series; ``None`` disables the docs check.
    metrics_catalogue: "str | None" = None
    #: Module prefixes that must carry complete annotations.
    annotation_modules: tuple[str, ...] = ()

    def in_lock_scope(self, module: str) -> bool:
        """Whether ``module`` is under the lock-discipline scope."""
        return _prefixed(module, self.lock_modules)

    def in_metrics_scope(self, module: str) -> bool:
        """Whether ``module`` is scanned for metric registrations."""
        return _prefixed(module, self.metrics_modules)

    def in_annotation_scope(self, module: str) -> bool:
        """Whether ``module`` must be fully annotated."""
        return _prefixed(module, self.annotation_modules)


def _prefixed(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class Rule:
    """Base class for static rules; subclasses set ``name``/``description``."""

    name = "rule"
    description = ""

    def check(self, project: "Project", config: AnalysisConfig) -> list[Finding]:
        """Return every violation of this rule in ``project``."""
        raise NotImplementedError


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([a-z0-9_\-, ]+)\)")


def inline_suppressions(source_lines: list[str]) -> "dict[int, set[str]]":
    """Map 1-based line numbers to the rule names allowed on them.

    An ``# repro: allow(rule)`` comment covers its own line and the
    line below it, so it can sit on the flagged statement or ride
    alone directly above.
    """
    allowed: dict[int, set[str]] = {}
    for index, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed.setdefault(index, set()).update(rules)
        allowed.setdefault(index + 1, set()).update(rules)
    return allowed


# ---------------------------------------------------------------------------
# The real tree's configuration.  Every name below is load-bearing: the
# lock-order rule checks make_lock call sites against these node names,
# lockdep records runtime edges under them, and docs/analysis.md
# documents the ranking.
# ---------------------------------------------------------------------------

LOCK_ORDER: tuple[str, ...] = (
    "serve.server.SaberServer._lock",
    "serve.tenants.Tenant._lock",
    "cluster.session.ClusterSession._lock",
    "api.session.SaberSession._lock",
    "core.executor.ThreadedExecutor._mutex",
    "core.result_stage.ResultStage._lock",
    "cluster.merge.MergeStage._lock",
    "api.session.ChunkBacklog._cond",
    "io.push.PushSource._cond",
    "relational.buffer.CircularTupleBuffer._lock",
    "core.scheduler.ThroughputMatrix._lock",
    "metrics.measurements.Measurements._lock",
    "metrics.registry.MetricsRegistry._lock",
    "metrics.registry._Instrument._lock",
    # Leaf: taken once per accelerator task and by metrics snapshots,
    # never while acquiring anything else.
    "gpu.accelerator.AcceleratorStats._lock",
)

DECLARED_EDGES: tuple[DeclaredEdge, ...] = (
    DeclaredEdge(
        "core.result_stage.ResultStage._lock",
        "relational.buffer.CircularTupleBuffer._lock",
        "ResultStage.submit holds its lock through on_release, which is "
        "wired to Dispatcher.release -> CircularTupleBuffer.release.",
    ),
    DeclaredEdge(
        "core.result_stage.ResultStage._lock",
        "api.session.ChunkBacklog._cond",
        "on_emit is wired to QueryHandle._on_emit, and windowed delivery "
        "wires on_window to ChunkBacklog.append; both append the chunk "
        "under the backlog's condition.",
    ),
    DeclaredEdge(
        "serve.server.SaberServer._lock",
        "metrics.registry.MetricsRegistry._lock",
        "SaberServer.admit constructs the Tenant under the server lock; "
        "Tenant.__init__ registers the tenant's collector, which locks "
        "the registry.",
    ),
    DeclaredEdge(
        "core.result_stage.ResultStage._lock",
        "cluster.merge.MergeStage._lock",
        "Shard window sinks (ResultStage.on_window) are wired to "
        "MergeStage.on_window, which records the report under the merge "
        "lock.",
    ),
    DeclaredEdge(
        "serve.tenants.Tenant._lock",
        "io.push.PushSource._cond",
        "Tenant.stats snapshots per-stream queue depth while holding "
        "the tenant lock; PushSource.queued_tuples locks the ingress "
        "condition.  (The static pass cannot type the comprehension "
        "variable iterating Tenant._streams.)",
    ),
)

DEFAULT_CONFIG = AnalysisConfig(
    lock_modules=(
        "core",
        "serve",
        "cluster",
        "relational.buffer",
        "api.session",
        "io.push",
        "metrics",
        "gpu.accelerator",
    ),
    lock_order=LOCK_ORDER,
    declared_edges=DECLARED_EDGES,
    single_writer_buffer_modules=("relational.buffer",),
    single_writer_dispatch_modules=(
        "core.dispatcher",
        "core.executor_sim",
        "core.executor",
        "core.executor_mp",
    ),
    metrics_modules=("metrics", "serve", "cluster"),
    metrics_catalogue="operations.md",
    annotation_modules=("analysis", "serve.protocol"),
)


@dataclass
class CheckResult:
    """Aggregated outcome of running a rule set over a project."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings
