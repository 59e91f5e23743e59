"""The repo benchmark (``BENCHMARK.json``): see ``README.md`` beside this file."""
