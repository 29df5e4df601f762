import warnings

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole test run (driver contract)."""
    import ray

    warnings.filterwarnings("ignore")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            # the idle-worker settings of perfbench/run.py RAY_SYSTEM_CONFIG,
            # so tests keep idle workers as the benchmark does (10 min, up
            # to 12) instead of Ray's default one-second reaping
            _system_config={"idle_worker_killing_time_threshold_ms": 600_000, "num_workers_soft_limit": 12},
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_workdir(tmp_path):
    return str(tmp_path / "engine")


@pytest.fixture()
def make_crawl_engine():
    """CrawlEngine factory that kills the engine's state actors at teardown
    (many engines per pytest session would otherwise accumulate actors)."""
    engines = []

    def _make(*args, **kwargs):
        from hydra_ray.pipelines.crawl import CrawlEngine

        eng = CrawlEngine(*args, **kwargs)
        engines.append(eng)
        return eng

    yield _make
    for eng in engines:
        eng.shutdown()


@pytest.fixture(params=["broadcast", "shuffle"])
def keyset_route(request, monkeypatch):
    """Run a key-set-filter test on both semi_join routes: the default
    broadcast filter, and the keyed shuffle (KEYS_BROADCAST_MAX → 0)."""
    if request.param == "shuffle":
        from hydra_ray.stages import joins

        monkeypatch.setattr(joins, "KEYS_BROADCAST_MAX", 0)
    return request.param


@pytest.fixture()
def table_route(monkeypatch):
    """Switch for the store's one table-size rule: ``with
    table_route("dataset"):`` runs its body with store.DRIVER_MAX_ROWS
    at 0, so every size test (lookup, filter_rows, merge_insert,
    compact, the crawl's frontier read and documents compaction) picks
    the Dataset side; ``"driver"`` keeps the default. A test runs its
    work on both routes and checks the results are equal."""
    from contextlib import contextmanager

    from hydra_ray.sources import store

    @contextmanager
    def route(name: str):
        assert name in ("driver", "dataset")
        with monkeypatch.context() as m:
            if name == "dataset":
                m.setattr(store, "DRIVER_MAX_ROWS", 0)
            yield name

    return route
