import hypothesis.configuration
import pytest


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_storage(tmp_path_factory):
    # hypothesis caches the constants it reads from local modules on disk even
    # with database=None; keep that cache out of the working tree
    hypothesis.configuration.set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    hypothesis.configuration.set_hypothesis_home_dir(None)
