"""The pipeline benchmark: five workloads, end-to-end metrics, and a
traced per-layer breakdown.  See README.md in this directory."""
