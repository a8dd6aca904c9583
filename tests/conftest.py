from hypothesis import settings

# every property test draws the same examples on every run
settings.register_profile("qmm", derandomize=True, deadline=None)
settings.load_profile("qmm")
