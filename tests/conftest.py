from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for being slow: the suite's verdict must not depend on the host's speed.
settings.register_profile("rookq", derandomize=True, deadline=None)
settings.load_profile("rookq")
