"""Shared test configuration.

Keeps hypothesis fast and deterministic so the whole suite stays well
under the one minute budget, and checks that both YAML loaders agree on
every config the tests load.
"""

import pytest
import yaml
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _configs_parse_alike_with_both_yaml_loaders(monkeypatch):
    """Every config and manifest a test loads parses to the same value with
    libyaml's loader, which klflow uses where it is installed, and with the
    pure-Python one; a file one of them rejects, the other rejects too."""
    if not yaml.__with_libyaml__:
        return
    import klflow.experiment

    load = klflow.experiment._load_yaml

    def parsed(text, loader):
        try:
            return repr(yaml.load(text, Loader=loader))
        except yaml.YAMLError:
            return "rejected"

    def checked(fh):
        text = fh.read()
        assert parsed(text, yaml.CSafeLoader) == parsed(text, yaml.SafeLoader), text
        fh.seek(0)
        return load(fh)

    monkeypatch.setattr(klflow.experiment, "_load_yaml", checked)
