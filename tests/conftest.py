"""Test-wide hypothesis settings.

``derandomize`` draws every property test's examples from a fixed seed, so
a tier-1 run is reproducible; ``deadline=None`` drops the per-example time
limit, whose failures only measure the load of the machine.  Neither
changes a tolerance or the number of examples.
"""

from hypothesis import settings

settings.register_profile("shiftrules", deadline=None, derandomize=True)
settings.load_profile("shiftrules")
