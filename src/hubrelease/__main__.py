"""``python -m hubrelease``: the command-line interface."""
from .cli import entrypoint

entrypoint()
