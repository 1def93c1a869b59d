"""`python -m verolab ...` runs the command line front end (verolab.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
