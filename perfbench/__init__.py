"""Benchmark of moldiff's training and sampling, measured from outside the
package.  Run ``python3 perfbench/run.py --help``; ``README.md`` beside this
file describes the workloads and metrics."""
