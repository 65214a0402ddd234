"""``python -m advrelight <command>`` runs the ``advrelight`` command line."""

from .cli import main

main()
