"""``python -m npnconf``: the command line without an installed script."""

import sys

from .cli import main

sys.exit(main())
