import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for being slow: the suite's verdict must not depend on the host's speed.
settings.register_profile("rookq", derandomize=True, deadline=None)
settings.load_profile("rookq")


def _clear_rookq_memos():
    """Empty every ``lru_cache`` defined in a loaded ``rookq`` module.

    The memos are found by scanning the modules, so one added or removed
    later needs no list kept here.
    """
    for modname, module in list(sys.modules.items()):
        if modname != "rookq" and not modname.startswith("rookq."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == modname:
                value.cache_clear()


@pytest.fixture
def clear_memos():
    """Empty the rookq memos before and after the test.

    A value memoised under a monkeypatch therefore cannot reach a later test;
    the fixture's value empties them again on demand, mid-test.
    """
    _clear_rookq_memos()
    yield _clear_rookq_memos
    _clear_rookq_memos()
