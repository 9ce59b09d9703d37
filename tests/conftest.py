import pytest


@pytest.fixture(autouse=True)
def private_cache_dir(tmp_path, monkeypatch):
    """Give every test its own empty disk cache, so no test reads or leaves
    files in the user's cache and a cold request is always cold.  A test
    that sets KSCHUR_CACHE_DIR itself overrides this one."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path / "kschur-cache"))
