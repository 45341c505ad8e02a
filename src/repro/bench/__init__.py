"""Benchmark harness: regenerate every figure of the paper's evaluation.

* :mod:`repro.bench.harness` — series containers and text/CSV rendering;
* :mod:`repro.bench.figures` — how experiments run: the ``Experiment`` row
  type, the one ping-pong ``Sweep`` runner and the bespoke runners, each
  returning a :class:`repro.bench.harness.SeriesSet`;
* :mod:`repro.bench.report` — ``EXPERIMENTS``, the one table declaring
  every experiment (Figure 9, Figure 10, ablations A1–A17: runner, claims,
  paper section, smoke membership), paper-claim vs measured-value checking
  and EXPERIMENTS.md generation;
* :mod:`repro.bench.cli` — ``python -m repro.bench <experiment>``.
"""

from repro.bench.harness import SeriesSet
from repro.bench.report import EXPERIMENTS

__all__ = ["SeriesSet", "EXPERIMENTS"]
