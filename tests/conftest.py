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
