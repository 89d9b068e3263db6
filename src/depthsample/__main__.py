"""``python -m depthsample``: the same command line as the ``depthsample`` script."""
from .cli import main

main()
