import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def skewed_sigmoid(monkeypatch):
    """Make ``tensor.sigmoid``'s backward 1% too large; its forward is unchanged."""
    from sfcl import tensor as T

    def sigmoid(x):
        s = T._sigmoid_stable(x.data)
        return T._node(s, "sigmoid", (x,), lambda g: (1.01 * g * s * (1 - s),))

    monkeypatch.setattr(T, "sigmoid", sigmoid)
