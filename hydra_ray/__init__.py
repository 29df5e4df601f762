"""hydra_ray — a Ray-Data-native crawler + data-processing engine.

A from-scratch reimplementation of the capabilities of datagouv/hydra
(udata-hydra: the data.gouv.fr metadata crawler + analysis service) on
idiomatic Ray Data: `ray.data.Dataset` pipelines of `map_batches` over
zero-copy Arrow batches, actor pools for stateful stages (politeness,
URL-seen key shards, fetch sessions), explicit hash partitioning by
domain with salting for skewed hosts, and versioned Parquet tables
(Lance-style append/versioned semantics) for checks, the interleaved
text+media span documents, metrics and per-partition checkpoints.

Nothing here is a port: the reference's Postgres/Redis/asyncio
execution model (see /root/reference, SURVEY.md) defines WHAT is
computed — check rows, change detection, next-check scheduling,
politeness budgets, URL-seen membership, span documents — while the
HOW is Ray Data throughout.
"""

__version__ = "0.1.0"
