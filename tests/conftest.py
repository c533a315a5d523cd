import os

import pytest

import dilation_lab


@pytest.fixture(autouse=True, scope="session")
def cli_subprocesses_import_the_tested_package():
    """The CLI subprocesses some tests start import the package the tests
    import, from a checkout's src/ as well as from an install."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(dilation_lab.__file__)),
                  prepend=os.pathsep)
        yield
