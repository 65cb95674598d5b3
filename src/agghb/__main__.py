"""``python -m agghb``: the same command line as the ``agghb`` script."""

import sys

from agghb.cli import main

if __name__ == "__main__":
    sys.exit(main())
