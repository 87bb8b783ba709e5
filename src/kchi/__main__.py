"""``python -m kchi``: the ``kchi`` command, runnable from a source checkout."""

import sys

from .cli import main

sys.exit(main())
