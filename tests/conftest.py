import pytest

import polymorph.polytest as pt


@pytest.fixture(autouse=True)
def _fresh_transition_memo():
    # _transitions reuses the previous call's labels, so a test that counts
    # labellings must not depend on what an earlier test labelled
    pt._LABELLED.clear()
    yield
    pt._LABELLED.clear()
