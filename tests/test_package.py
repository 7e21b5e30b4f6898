import sentattn


def test_every_exported_name_resolves():
    assert len(set(sentattn.__all__)) == len(sentattn.__all__)
    assert [name for name in sentattn.__all__ if not hasattr(sentattn, name)] == []


def test_star_import():
    namespace = {}
    exec("from sentattn import *", namespace)
    assert set(sentattn.__all__) <= set(namespace)
