"""The repo benchmark: end-to-end and per-layer host-time metrics of the
user's pipeline over five workloads.  See ``bench/README.md``."""
