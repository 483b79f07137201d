"""Library behind ``perfbench/run.py``: workloads, spans, statistics."""
