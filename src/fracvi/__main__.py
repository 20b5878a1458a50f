"""``python -m fracvi <cmd>``: the same command line as ``fracvi <cmd>``."""

import sys

from .cli import main

sys.exit(main())
