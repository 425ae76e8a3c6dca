"""Per-figure/table experiment declarations (see DESIGN.md experiment index).

Each module is one ``repro.cli`` command and only declares: ``*_cells()``
sweeps of ``(key, CellSpec)`` pairs run by ``common.run_keyed``, a
``report`` that formats the keyed results, its flags
(``add_arguments(parser)``) and its run from the parsed options
(``run(args, engine)``).  The package itself imports none of them.
"""
