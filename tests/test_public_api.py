"""The package's public names: ``__all__`` lists each once and each resolves."""

import statefuse


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from statefuse import *", namespace)
    names = statefuse.__all__
    assert len(names) == len(set(names))
    assert all(name in namespace for name in names)
    assert all(getattr(statefuse, name) is namespace[name] for name in names)


def test_removed_motion_types_are_gone():
    gone = ("MotionCostMatrix", "MotionMask", "Proposal2D", "run_pipeline", "OpCountReport",
            "generate_scene", "oracle_proposals", "bilinear_sample", "seeded_layer_params",
            "zero_layer_params", "LayerNormParams", "Gs4Params")
    for name in gone:
        assert name not in statefuse.__all__
        assert not hasattr(statefuse, name)
