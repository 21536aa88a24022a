import dcq


def test_every_exported_name_resolves_once():
    assert len(dcq.__all__) == len(set(dcq.__all__))
    assert [name for name in dcq.__all__ if not hasattr(dcq, name)] == []
