"""One hypothesis profile for every property test of the suite.

Properties run without a deadline, because their examples are exact
computations of uneven cost, and derandomized, so that each run draws
the same examples; a property sets only its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("polygroup", deadline=None, derandomize=True)
settings.load_profile("polygroup")
