"""`python -m epcag`: the same command line as the `epcag` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
