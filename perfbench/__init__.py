"""End-to-end and per-layer benchmark of the capheap laboratory.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
