"""Seeded end-to-end benchmark of hydra_ray (see perfbench/README.md)."""
