"""`python -m gamedep`: the command-line interface."""

from .cli import entry

entry()
