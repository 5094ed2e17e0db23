import pytest


class CountingBackend:
    """A backend seen through its ``generate``: counts the samples that
    generation requests get back and the judge requests sent."""

    def __init__(self, inner):
        self.inner = inner
        self.generation_samples = 0
        self.judge_calls = 0

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
