"""Bundled scenario files (*.scn)."""

from __future__ import annotations


def _files():
    """The bundled files' directory.

    ``importlib.resources`` is imported here, not with the package: on
    CPython 3.12+ it imports ``inspect``, which only a caller that reads
    a bundled file should pay for.
    """
    from importlib import resources

    return resources.files(__name__)


def bundled_names() -> tuple[str, ...]:
    """Names of all bundled scenarios, sorted."""
    return tuple(
        sorted(p.name[: -len(".scn")] for p in _files().iterdir() if p.name.endswith(".scn"))
    )


def load_text(name: str) -> str:
    """Raw text of a bundled scenario."""
    return _files().joinpath(f"{name}.scn").read_text(encoding="utf-8")
