"""python -m ncwb: the ncwb command line."""

import sys

from .cli import main

sys.exit(main())
