"""Suite-wide test settings.

Property tests run under a derandomized hypothesis profile: the examples are
a fixed function of each test, so the suite is as reproducible as fedsim's
runs; no example database carries failures from one run into the next, and
no per-example deadline can fail a test on a loaded machine.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "fedsim", derandomize=True, database=None, deadline=None, max_examples=200
    )
    settings.load_profile("fedsim")
