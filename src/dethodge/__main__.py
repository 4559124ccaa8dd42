"""``python -m dethodge``: the ``dethodge`` command line without installing
its script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
