import collections
import math
import sys

import pytest

from chargequench import get_state


@pytest.fixture(scope="session")
def neel():
    return get_state("neel")


@pytest.fixture(scope="session")
def dimer():
    return get_state("dimer")


@pytest.fixture(scope="session")
def tilted_max():
    return get_state(f"tilted:{math.pi / 2}")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` counts calls of each function, by name,
    under every name a chargequench module binds it to (undone after the
    test)."""
    def count(*functions):
        counts = collections.Counter()
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("chargequench.") and m]
        for func in functions:
            def counted(*args, _func=func, **kwargs):
                counts[_func.__name__] += 1
                return _func(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, counted)
        return counts

    return count
