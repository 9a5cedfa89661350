"""The repo's benchmark: four workloads, yardstick-normalised end-to-end
metrics, and per-layer spans recorded from outside.  Start at ``bench/run.py``
and ``bench/README.md``."""
