import pytest

import foulkes


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from empty memos, so none leans on an earlier one."""
    foulkes.clear_caches()
