"""Reputation ranking for mention graphs, with an IR evaluation harness.

The pipeline has three stages: parse tweets into rater->ratee interaction
records (`ingest`), aggregate them into a weighted graph and iterate the
reputation flow to a fixed point (`graph`, `rank`), then score rankings
against graded judgments (`evaluation`). The `cli` module wires the stages
together behind a `liquidrank` console command. Each public name is
imported from the module that defines it; `import liquidrank` binds none.
Every reader opens a path, a str or a `Path`, and names it in its errors.
"""
