"""The repo benchmark (see benchmark/README.md); run it through benchmark/run.py."""
