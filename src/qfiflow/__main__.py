"""``python -m qfiflow``: the qfiflow command line (see :mod:`qfiflow.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
