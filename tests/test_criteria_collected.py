"""The acceptance criteria import and are all there.

`test_acceptance` imports helpers from other test modules; should one of
those imports break, this test fails by name rather than the suite showing
only a collection error.
"""

import test_acceptance


def test_the_acceptance_module_defines_criteria_01_to_11():
    numbers = sorted(
        name.split("_")[2] for name in vars(test_acceptance) if name.startswith("test_criterion_")
    )
    assert numbers == [f"{n:02d}" for n in range(1, 12)]
