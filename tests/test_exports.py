"""The package's export list and its namespace agree."""

import types

import envelope


def test_every_exported_name_resolves():
    missing = [name for name in envelope.__all__
               if not hasattr(envelope, name)]
    assert missing == []


def test_all_is_exactly_the_public_names():
    # a name dropped from the imports but not from __all__ (or the other
    # way round) fails here rather than in `from envelope import *`
    public = {name for name, obj in vars(envelope).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert len(envelope.__all__) == len(set(envelope.__all__))
    assert set(envelope.__all__) == public | {"__version__"}
