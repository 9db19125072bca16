import pytest

from revtrain import data


@pytest.fixture(scope="session")
def cifar_seed0_root(tmp_path_factory):
    """The seed-0 synthetic dataset that `data.ensure_dataset` writes, shared
    read-only by every module that trains or inspects it."""
    root = tmp_path_factory.mktemp("cifar-seed0")
    data.synthesize_cifar_like(root, seed=0)
    return root
