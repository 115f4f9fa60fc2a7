"""One Hypothesis profile for the whole suite: the same examples on every
run, no per-example deadline, and no health check for slow data
generation. Each test sets only its own max_examples."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tier1")
