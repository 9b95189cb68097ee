"""`python -m contfrob ...` runs the command line of contfrob.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
