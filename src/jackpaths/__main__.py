"""``python -m jackpaths``: the same entry point as the ``jackpaths`` script."""

import sys

from .cli import main

sys.exit(main())
