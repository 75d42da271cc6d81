"""`python -m ltvmcd` runs the ltvmcd command line tool."""

import sys

from .cli import main

sys.exit(main())
