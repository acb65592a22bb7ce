"""The evaluation harness: one entry point per paper figure/table.

Every ``run_*`` function in :mod:`repro.harness.experiments` returns a
:class:`repro.stats.report.FigureData` whose rows mirror the paper's
plot series; ``python -m repro.harness`` writes them under ``results/``
and checks each against its shape claims in :mod:`repro.harness.claims`.
``Scale`` presets trade fidelity for wall time — ``smoke`` for CI,
``default`` for local iteration, ``paper`` for the recorded
EXPERIMENTS.md numbers.
"""
