"""`python -m qfk`: the same command line as the `qfk` script."""
from .cli import main

raise SystemExit(main())
