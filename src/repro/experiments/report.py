"""One-command reproduction report.

``python -m repro report --out results/`` runs every experiment at full
size and writes a single markdown summary next to the per-experiment
artefacts -- the quickest way to regenerate the whole evaluation and see
every headline number on one page.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from .base import ExperimentResult

__all__ = ["run_report"]

#: One-line "what should I look at" hook per experiment.
_HEADLINES = {
    "fig09": "spatial skew: top-decile share {top_decile_share}",
    "fig10": "pair similarity spectrum over the synthetic trace",
    "fig11": "crossover at J ~= {crossover_jaccard}",
    "fig12": "peak at rho = {peak_rho}",
    "fig13": "packing wins for small alpha; forced packing worst at 0.8",
    "running_example": "greedy parts exact; package part {oracle_package_cost} (oracle-certified)",
    "ratio_study": "Theorem 1 holds; greedy worst {worst_greedy_over_optimal}",
    "scaling": "DP slope {dp_loglog_slope}, pre-scan slope {prescan_loglog_slope}",
    "online_study": "on-line premium {worst_online_premium}x",
    "ablation_theta": "best theta = {best_theta}",
    "ablation_options": "full Observation-2 option set dominates",
    "ablation_packing": "best strategy: {best_strategy}",
    "robustness": "penalty {worst_cost_penalty}x; Markov accuracy {markov_next_zone_accuracy}",
    "capacity_study": "best classical config pays {best_classical_factor}x cost-optimal",
    "trace_study": "{packages_formed} packages on the full trace",
    "ledger_gap": "worst physical/ledger gap {worst_gap}x",
    "hetero_study": "homogeneity penalty grows with rate spread",
}


def run_report(
    out_dir: Union[str, Path] = "results",
    *,
    quick: bool = False,
    only: Optional[List[str]] = None,
    workers: Optional[int] = None,
    memo: bool = False,
    metrics: bool = False,
    trace: bool = False,
    similarity: Optional[str] = None,
    resilience=None,
    prom: bool = False,
) -> Path:
    """Run all experiments, persist artefacts, and write ``REPORT.md``.

    ``workers``/``memo``/``metrics``/``trace`` are forwarded to every
    harness that exposes the Phase-2 execution-engine / observability
    knobs (the sweep harnesses); the rest run unchanged.  With ``trace``
    the supporting harnesses persist ``TRACE_<id>.json`` Chrome traces
    next to their other artefacts; ``prom`` (implies ``metrics``)
    additionally renders each metrics snapshot as a ``PROM_<id>.prom``
    Prometheus text-format file.  Returns the path of the generated
    markdown report.
    """
    from ..cli import _QUICK_OVERRIDES, _engine_kwargs
    from . import ALL_EXPERIMENTS

    metrics = metrics or prom
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    names = only or list(ALL_EXPERIMENTS)
    sections: List[str] = [
        "# Reproduction report",
        "",
        "Generated by `python -m repro report`. One section per experiment;",
        "CSV series and full text reports sit next to this file.",
        "",
        "| experiment | headline |",
        "|---|---|",
    ]
    results: Dict[str, ExperimentResult] = {}
    for name in names:
        fn = ALL_EXPERIMENTS[name]
        kwargs = dict(_QUICK_OVERRIDES.get(name, {})) if quick else {}
        kwargs.update(
            _engine_kwargs(
                fn, workers, memo, metrics, trace,
                similarity=similarity, resilience=resilience,
            )
        )
        result = fn(**kwargs)
        if prom and result.metrics is not None:
            from ..obs.telemetry import render_prometheus

            result.prom = render_prometheus(result.metrics)
        result.save(out)
        results[name] = result
        headline = _HEADLINES.get(name, "")
        try:
            headline = headline.format(**result.params)
        except (KeyError, IndexError):
            pass
        sections.append(f"| {name} | {headline} |")

    sections.append("")
    for name, result in results.items():
        sections.append(f"## {name}: {result.title}")
        sections.append("")
        sections.append("```")
        sections.append(result.table())
        sections.append("```")
        for note in result.notes:
            sections.append(f"- {note}")
        sections.append("")

    report_path = out / "REPORT.md"
    report_path.write_text("\n".join(sections) + "\n")
    return report_path
