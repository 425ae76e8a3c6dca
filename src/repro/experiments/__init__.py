"""Per-figure/table experiment declarations (see DESIGN.md experiment index).

Each module is runnable (``python -m repro.experiments.fig7_fig8``) and
only declares: ``*_cells()`` sweeps of ``(key, CellSpec)`` pairs run by
``common.run_keyed`` and a ``report`` that formats the keyed results.
Modules are imported lazily to keep ``python -m`` invocations clean.
"""
