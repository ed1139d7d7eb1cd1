"""The public API: every exported name resolves, the proof replay and the
ambient search loading on first use, and no function takes a per-call
resource limit.

The closure cap (GROUPSMITH_CAP), the table entry budget and the wreath
order cap live in `groupsmith.core`; only the two searches whose caps are
part of their result, `closure_order_capped` and `min_overgroup_search`,
take one as a parameter.
"""

import importlib
import inspect

import pytest

import groupsmith

CAPPED_SEARCHES = {"closure_order_capped", "min_overgroup_search"}
# a report records the cap its search ran with; it limits nothing
RECORDS = {"SearchReport"}


def _parameters(obj) -> set[str]:
    # a NamedTuple record takes its fields through __new__
    target = obj.__init__ if inspect.isclass(obj) and not issubclass(obj, tuple) else obj
    return set(inspect.signature(target).parameters)


def test_only_the_capped_searches_take_a_cap():
    takes_cap, takes_order_cap, takes_workers = set(), set(), set()
    for name in groupsmith.__all__:
        obj = getattr(groupsmith, name)
        if not callable(obj) or name in RECORDS:
            continue
        params = _parameters(obj)
        if "cap" in params:
            takes_cap.add(name)
        if "order_cap" in params:
            takes_order_cap.add(name)
        if "workers" in params:
            takes_workers.add(name)
    assert takes_cap == CAPPED_SEARCHES
    assert takes_order_cap == set()
    assert takes_workers == set()  # the ambient search runs in one process


def test_every_exported_name_resolves_to_its_submodule_object():
    assert set(groupsmith.__all__) <= set(dir(groupsmith))
    for name in groupsmith.__all__:
        obj = getattr(groupsmith, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
    namespace = {}
    exec("from groupsmith import *", namespace)
    assert all(namespace[name] is getattr(groupsmith, name) for name in groupsmith.__all__)


def test_an_unknown_attribute_is_missing():
    assert not hasattr(groupsmith, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        groupsmith.no_such_name
