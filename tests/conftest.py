"""Test settings shared by every module.

With the CI environment variable set, hypothesis runs the "ci" profile: its
examples are derived from each test itself, so a CI run is reproducible.
Local runs keep the default profile and keep exploring new examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
