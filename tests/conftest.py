"""Every property test runs the same examples on every host: derandomised,
with no per-example deadline."""

from hypothesis import settings

settings.register_profile("fanostat", derandomize=True, deadline=None)
settings.load_profile("fanostat")
