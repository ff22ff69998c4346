"""The repository benchmark: four workloads over the holistic kernel.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
