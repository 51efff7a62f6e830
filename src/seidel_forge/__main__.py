"""``python -m seidel_forge``: the command-line interface."""
from .cli import cli

__all__: list[str] = []

if __name__ == "__main__":
    cli()
