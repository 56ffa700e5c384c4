"""``python -m seppaths``: the ``seppaths`` command line."""

from .cli import main_entry

main_entry()
