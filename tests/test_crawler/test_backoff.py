"""Politeness matrices (reference tests/test_crawl/test_backoff.py:20-190),
on the pure PolitenessState core with a virtual clock — no sleeps."""

from hydra_ray.state.politeness import PolitenessState


def make(nb=3, period=10.0, cool=100.0):
    return PolitenessState(
        backoff_nb_req=nb,
        backoff_period=period,
        cool_off_period=cool,
        no_backoff_domains={"static.data.example"},
    )


def test_no_backoff_under_budget():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=200)
    st.record_agg("a.fr", 1, 1.0, last_status=200)
    assert st.should_backoff("a.fr", now=2.0) == (False, "")


def test_backoff_when_window_full():
    st = make(nb=3, period=10)
    for t in (0.0, 1.0, 2.0):
        st.record_agg("a.fr", 1, t, last_status=200)
    should, reason = st.should_backoff("a.fr", now=3.0)
    assert should is True
    assert "Too many requests" in reason


def test_backoff_lifts_after_period():
    st = make(nb=3, period=10)
    for t in (0.0, 1.0, 2.0):
        st.record_agg("a.fr", 1, t, last_status=200)
    assert st.should_backoff("a.fr", now=5.0)[0] is True
    # window slides: all three requests age out
    assert st.should_backoff("a.fr", now=13.0)[0] is False


def test_no_backoff_domains_exempt():
    st = make(nb=1, period=100)
    for t in range(10):
        st.record_agg("static.data.example", 1, float(t), last_status=200)
    assert st.should_backoff("static.data.example", now=10.0) == (False, "")


def test_429_cool_off():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=429)
    should, reason = st.should_backoff("a.fr", now=50.0)
    assert should is True
    assert "429" in reason
    # cool-off expires after COOL_OFF_PERIOD
    assert st.should_backoff("a.fr", now=101.0)[0] is False


def test_ratelimit_exhausted():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=200, ratelimit_remaining="0", ratelimit_limit="100")
    should, reason = st.should_backoff("a.fr", now=1.0)
    assert should is True
    assert "X-ratelimit" in reason


def test_ratelimit_low_within_backoff_period():
    st = make(period=10)
    st.record_agg("a.fr", 1, 5.0, last_status=200, ratelimit_remaining="5", ratelimit_limit="100")
    assert st.should_backoff("a.fr", now=6.0)[0] is True  # 5% left, recent
    # after the backoff period the low-quota signal no longer applies
    assert st.should_backoff("a.fr", now=20.0)[0] is False


def test_ratelimit_minus_one_means_unlimited():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=200, ratelimit_remaining="50", ratelimit_limit="-1")
    assert st.should_backoff("a.fr", now=1.0)[0] is False


def test_ratelimit_garbage_ignored():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=200, ratelimit_remaining="abc", ratelimit_limit="xyz")
    assert st.should_backoff("a.fr", now=1.0)[0] is False


def test_reserve_quota():
    st = make(nb=3, period=10)
    assert st.reserve("a.fr", 10, now=0.0) == 3
    st.record_agg("a.fr", 1, 0.0, last_status=200)
    assert st.reserve("a.fr", 10, now=1.0) == 2
    # exempt domains get everything
    assert st.reserve("static.data.example", 10, now=0.0) == 10


def test_serialize_roundtrip():
    st = make()
    st.record_agg("a.fr", 1, 0.0, last_status=429)
    st.record_agg("b.fr", 1, 1.0, last_status=200, ratelimit_remaining="1", ratelimit_limit="10")
    blob = st.serialize()
    st2 = make()
    st2.restore(blob)
    assert st2.should_backoff("a.fr", now=2.0)[0] is True
    assert st2.should_backoff("b.fr", now=2.0)[0] is True
