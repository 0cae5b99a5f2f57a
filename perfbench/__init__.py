"""The repo benchmark for `part`; run it with `python3 perfbench/run.py`."""
