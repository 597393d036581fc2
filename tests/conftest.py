from hypothesis import settings

# the same examples on every run, and no timing-based failures on a slow
# or busy host
settings.register_profile("cbplab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("cbplab")
