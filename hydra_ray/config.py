"""Engine configuration.

Mirrors the reference's TOML config cascade (reference:
udata_hydra/config_default.toml, udata_hydra/__init__.py:20-40) as a
plain dataclass with an ``override()`` helper for tests. Values below
reproduce the reference defaults that are parity-critical (politeness
budget, check delays, batch size, excluded patterns, size caps).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Config:
    # bearer token guarding the mutating API routes (reference
    # config_default.toml:19 API_KEY; utils/auth.py middleware)
    API_KEY: str = "hydra_api_key_to_change"
    # -- crawler settings (reference config_default.toml:21-51) -- #
    EXCLUDED_PATTERNS: list[str] = field(
        default_factory=lambda: [
            "http%geo.data.gouv.fr%",
            "%?format=shp%",
        ]
    )
    NO_BACKOFF_DOMAINS: list[str] = field(
        default_factory=lambda: [
            "static.data.gouv.fr",
            "www.data.gouv.fr",
            "inspire.data.gouv.fr",
        ]
    )
    BACKOFF_NB_REQ: int = 180
    BACKOFF_PERIOD: int = 360  # seconds
    COOL_OFF_PERIOD: int = 86400  # seconds
    STUCK_THRESHOLD_SECONDS: int = 3600
    BATCH_SIZE: int = 40
    CHECK_DELAYS: list[int] = field(default_factory=lambda: [12, 24, 168, 720])  # hours
    SLEEP_BETWEEN_BATCHES: int = 60
    USER_AGENT: str = "hydra-ray/0.1 crawler"

    # -- CORS probe (reference config_default.toml:53-56) -- #
    CORS_PROBE_ORIGIN: str = "https://www.data.gouv.fr"
    CORS_PROBE_REQUEST_HEADERS: list[str] = field(
        default_factory=lambda: ["authorization", "content-type"]
    )
    CORS_PROBE_TIMEOUT_SECONDS: int = 5

    # -- size caps in bytes (reference config_default.toml:58-69) -- #
    MAX_FILESIZE_ALLOWED: dict[str, int] = field(
        default_factory=lambda: {
            "csv": 104857600,
            "csvgz": 104857600,
            "xls": 52428800,
            "xlsx": 13107200,
            "ods": 10485760,
            "geojson": 104857600,
            "parquet": 52428800,
            "wms": 1048576,
            "wfs": 1048576,
        }
    )
    DEFAULT_MAX_FILESIZE_ALLOWED: int = 52428800

    # -- analysis feature flags (reference config_default.toml:71-114) -- #
    CSV_ANALYSIS: bool = True
    CSV_TO_DB: bool = True
    DB_TO_PARQUET: bool = False
    MIN_LINES_FOR_PARQUET: int = 200
    DB_TO_GEOJSON: bool = False
    GEOJSON_TO_PMTILES: bool = False
    PARQUET_TO_DB: bool = False
    OGC_ANALYSIS_ENABLED: bool = False
    OGC_FORMATS: list[str] = field(default_factory=lambda: ["wfs", "wms"])
    WEBHOOK_ENABLED: bool = True
    # public URL base recorded on check rows for exported artifacts
    # (reference: the S3/MinIO URL returned by send_file and written to
    # check.{parquet,geojson,pmtiles}_url — analysis/exports.py:38-46)
    EXPORTS_BASE_URL: str = "https://object-store.example/hydra-exports"

    # reserved PG column budget (reference config_default.toml:17)
    NAMEDATALEN: int = 64

    # udata API base; enables 404 stable-URL recovery when set
    # (reference config UDATA_URI + crawl/check_resources.py:203)
    UDATA_URI: str = ""

    # -- engine-specific (no reference counterpart) -- #
    ORDERING_SEED: int = 42  # replaces ORDER BY random(); see frontier.py
    URLSEEN_SHARDS: int = 8
    POLITENESS_SHARDS: int = 4
    # max rows per crawl task (one call of each of the four stages): a
    # bound, not the block size; an iteration cuts full waves of one block
    # per CPU slot, as few as this bound allows, and never more blocks
    # than a quarter of it would cut (pipelines/crawl.py::block_count)
    FETCH_BATCH_SIZE: int = 1024

    def override(self, **kwargs: Any) -> None:
        for k, v in kwargs.items():
            if not hasattr(self, k):
                raise AttributeError(f"unknown config key: {k}")
            setattr(self, k, v)

    def copy(self) -> "Config":
        return dataclasses.replace(
            self,
            **{
                f.name: (getattr(self, f.name).copy() if isinstance(getattr(self, f.name), (list, dict)) else getattr(self, f.name))
                for f in dataclasses.fields(self)
            },
        )


config = Config()


@contextmanager
def config_override(**kwargs: Any) -> Iterator[Config]:
    """Temporarily override global config values (test helper, mirrors
    reference ``config.override`` usage in tests)."""
    saved = {k: getattr(config, k) for k in kwargs}
    config.override(**kwargs)
    try:
        yield config
    finally:
        config.override(**saved)
