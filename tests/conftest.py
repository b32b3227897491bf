import pytest

from ringtasep import count, tableaux

# the memos that hold census states and closed-form values for a process
MEMOS = (
    count._class_states,
    count._position_census,
    count._shifted_det,
    tableaux._hook_content,
    tableaux._last_rows,
    tableaux._prefix_det,
)


@pytest.fixture
def cold_memos():
    """Empties every memo before and after a test, so that a test that
    patches what they compute starts cold and leaves no patched value
    cached for the tests after it."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
