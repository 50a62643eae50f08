"""Put this directory on ``sys.path``, so that test modules can import the
shared ``_oracles`` module under any pytest import mode and from any
working directory."""

import sys
from pathlib import Path

HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
