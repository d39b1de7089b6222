"""Rule: the lock-acquisition graph must be acyclic and match the
documented order, and scoped modules must create locks through the
named ``make_lock``/``make_condition`` factories."""

from __future__ import annotations

from ..base import AnalysisConfig, Finding, Rule
from ..locks import build_lock_graph, build_lock_model
from ..project import Project

__all__ = ["LockOrderRule"]


class LockOrderRule(Rule):
    """Deadlock-freedom: no cycles, documented ranking, named factories."""

    name = "lock-order"
    description = (
        "The static lock-acquisition graph (with/acquire nesting plus "
        "declared dynamic edges) must be acyclic and consistent with "
        "the documented lock ranking; locks in scoped modules must be "
        "created via make_lock/make_condition under their canonical "
        "node name so runtime lockdep can match them."
    )

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Check factory discipline, graph acyclicity, and the ranking."""
        findings: list[Finding] = []
        model = build_lock_model(project)

        for site in model.sites:
            if not config.in_lock_scope(site.module):
                continue
            path = str(project.modules[site.module].path)
            symbol = site.node_name
            if not site.via_factory:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=path,
                        line=site.lineno,
                        symbol=symbol,
                        message=(
                            "lock created with raw threading primitives; use "
                            "make_lock()/make_condition() from repro.analysis.lockdep "
                            "so runtime lock-order validation can track it"
                        ),
                    )
                )
                continue
            expected = site.aliases or (
                f"{site.class_key}.{site.attr}" if site.class_key else site.node_name
            )
            if site.declared_name is None:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=path,
                        line=site.lineno,
                        symbol=symbol,
                        message=(
                            "make_lock/make_condition needs a literal lock-class "
                            f"name (expected {expected!r})"
                        ),
                    )
                )
            elif site.declared_name != expected:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=path,
                        line=site.lineno,
                        symbol=symbol,
                        message=(
                            f"lock-class name {site.declared_name!r} does not match "
                            f"the canonical node name {expected!r}"
                        ),
                    )
                )

        graph = build_lock_graph(project, config, model)
        cycle = graph.find_cycle()
        if cycle is not None:
            detail = " -> ".join(cycle)
            via = graph.provenance(cycle[0], cycle[1]) if len(cycle) > 1 else []
            findings.append(
                Finding(
                    rule=self.name,
                    path="<lock-graph>",
                    line=0,
                    symbol=cycle[0],
                    message=(
                        f"lock-order cycle: {detail}"
                        + (f" (first edge via {via[0]})" if via else "")
                    ),
                )
            )

        if config.lock_order:
            rank = {name: index for index, name in enumerate(config.lock_order)}
            for edge in graph.edges():
                src_rank = rank.get(edge.src)
                dst_rank = rank.get(edge.dst)
                if src_rank is not None and dst_rank is not None and src_rank > dst_rank:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path="<lock-graph>",
                            line=0,
                            symbol=f"{edge.src} -> {edge.dst}",
                            message=(
                                f"edge {edge.src} -> {edge.dst} (via {edge.via}) "
                                "contradicts the documented lock ranking"
                            ),
                        )
                    )
            for site in model.sites:
                if (
                    config.in_lock_scope(site.module)
                    and site.via_factory
                    and site.aliases is None
                    and site.node_name not in rank
                ):
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=str(project.modules[site.module].path),
                            line=site.lineno,
                            symbol=site.node_name,
                            message=(
                                f"lock {site.node_name!r} is not in the documented "
                                "lock ranking (base.LOCK_ORDER / docs/analysis.md)"
                            ),
                        )
                    )
        return findings
