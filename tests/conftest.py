import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# CI runs with --hypothesis-profile=ci: a failing example prints the blob
# that @reproduce_failure replays, since CI keeps no example database; each
# test's own max_examples and deadline still apply
settings.register_profile("ci", print_blob=True)
