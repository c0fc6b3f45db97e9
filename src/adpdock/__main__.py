"""``python -m adpdock``: the same command line as the ``adpdock`` script."""

import sys

from .dockcli import main

sys.exit(main())
