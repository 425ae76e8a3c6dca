"""The repo's benchmark: one command, six workloads, host time per layer.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
(see ``bench/README.md`` and ``BENCHMARK.json``).  Everything here
times the simulator from outside, around calls into public functions
of ``repro``; nothing under ``src/`` knows this package exists.
"""
