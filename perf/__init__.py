"""The repository's benchmark: ``python3 perf/run.py`` (see perf/README.md)."""
