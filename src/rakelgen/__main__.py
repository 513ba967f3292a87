"""``python -m rakelgen``: the command-line interface, as ``rakelgen`` runs it."""

from .cli import main

raise SystemExit(main())
