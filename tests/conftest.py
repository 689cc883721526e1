from hypothesis import settings

# Derandomized so every run draws the same examples; no example database,
# so a run writes nothing into the checkout.
settings.register_profile(
    "kickcool", derandomize=True, database=None, max_examples=100, deadline=5000
)
settings.load_profile("kickcool")
