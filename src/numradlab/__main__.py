"""``python -m numradlab``: the same command line as the ``numradlab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
