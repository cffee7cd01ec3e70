"""Shared test configuration."""

from hypothesis import settings

# No per-example deadline: wall time per example varies with host load (by
# up to 30% on shared machines), so a deadline fails examples at random.
settings.register_profile("gencheb", deadline=None)
settings.load_profile("gencheb")
