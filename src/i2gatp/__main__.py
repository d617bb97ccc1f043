"""``python -m i2gatp``: the command line of :mod:`i2gatp.cli`."""

import sys

from .cli import main

sys.exit(main())
