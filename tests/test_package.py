import gexforms


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from gexforms import *", namespace)
    for name in gexforms.__all__:
        assert name in namespace, name
