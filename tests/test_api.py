"""The package surface: ``rfunc`` re-exports exactly its modules' ``__all__``."""

import rfunc
from rfunc import analysis, core, quantum


def test_all_is_the_modules_all_in_order():
    assert rfunc.__all__ == core.__all__ + analysis.__all__ + quantum.__all__
    assert len(set(rfunc.__all__)) == len(rfunc.__all__)


def test_every_name_is_the_modules_object():
    for mod in (core, analysis, quantum):
        for name in mod.__all__:
            assert getattr(rfunc, name) is getattr(mod, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rfunc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(rfunc.__all__)


def test_check_delta_is_exported():
    assert rfunc.check_delta is rfunc.core.check_delta
