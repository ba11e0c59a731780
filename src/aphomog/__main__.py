"""``python -m aphomog``: the ``aphomog`` command line."""
from .cli import main

raise SystemExit(main())
