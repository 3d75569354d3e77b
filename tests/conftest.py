"""Suite-wide test settings.

Every property test draws the same examples on every run: hypothesis is
derandomized (its examples follow from each test's name), keeps no example
database, and sets no deadline, since a run's time varies with the host.
Each test's own `max_examples` still holds. A fixed draw that fails is a
defect to fix or report, not one to re-seed away."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
