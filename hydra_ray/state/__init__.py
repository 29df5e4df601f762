"""Shared mutable state held in Ray actors.

The reference keeps all shared state in PostgreSQL (catalog UNIQUE
constraints for URL-seen, SQL window counts for politeness). Here each
concern is a small sharded pool whose shard i lives in a
``StateShard`` actor (state/shard.py), one process per slot for both
concerns: state lives in memory, is deterministic under an injected
clock, and serializes into per-shard checkpoint files.
"""
