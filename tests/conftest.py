import signal

import pytest

# A test that runs longer than this fails instead of hanging the suite; the
# slowest test takes a few seconds.
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def time_bound():
    def expire(signum, frame):
        # no Python traceback: pytest cannot render every interrupted frame
        where = f"{frame.f_code.co_filename}, in {frame.f_code.co_name}"
        pytest.fail(f"test ran longer than {TEST_SECONDS} s ({where})", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
