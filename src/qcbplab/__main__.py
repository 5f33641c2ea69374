"""``python -m qcbplab``: the same command line as the ``qcbplab`` script."""

import sys

from qcbplab.cli import main

if __name__ == "__main__":
    sys.exit(main())
