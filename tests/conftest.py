import gc
import threading

import pytest


@pytest.fixture(autouse=True)
def collection_left_enabled():
    """Fails a test that leaves automatic garbage collection off, such as a
    run's pause that was not undone, and turns it back on for the next test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left automatic garbage collection disabled")


class CountingBackend:
    """A backend seen through its ``generate``: counts the samples that
    generation requests get back and the judge requests sent. It passes on
    the wrapped backend's ``prepare_wave``, when it has one, so a run through
    it draws as a run without it does."""

    def __init__(self, inner):
        self.inner = inner
        self.generation_samples = 0
        self.judge_calls = 0
        prepare = getattr(inner, "prepare_wave", None)
        if prepare is not None:
            self.prepare_wave = prepare

    def generate(self, request):
        response = self.inner.generate(request)
        if request.judge:
            self.judge_calls += 1
        else:
            self.generation_samples += len(response.samples)
        return response


@pytest.fixture
def counting():
    """Wraps a backend in a :class:`CountingBackend`."""
    return CountingBackend


class CountingCache:
    """A response cache seen through its ``get``: counts the lookups that
    return a sample (hits) and those that return None (misses)."""

    def __init__(self, inner):
        self.inner = inner
        self.put = inner.put
        self.hits = 0
        self.misses = 0
        # the threads of a wave look samples up at once
        self._lock = threading.Lock()

    def get(self, key):
        sample = self.inner.get(key)
        with self._lock:
            if sample is None:
                self.misses += 1
            else:
                self.hits += 1
        return sample


@pytest.fixture
def counting_cache():
    """Wraps a response cache in a :class:`CountingCache`."""
    return CountingCache


def _cyclic_garbage(run) -> int:
    """The objects that ``gc.collect()`` finds unreachable after ``run()``,
    called with automatic collection off, from a collected heap."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def cyclic_garbage():
    """Counts the cyclic garbage a call leaves (:func:`_cyclic_garbage`)."""
    return _cyclic_garbage
