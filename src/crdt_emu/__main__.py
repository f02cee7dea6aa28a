"""``python -m crdt_emu``: the ``crdt-emu`` command line."""

import sys

from .cli import main

sys.exit(main())
