"""``python -m confspace``: the command line of ``confspace.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
