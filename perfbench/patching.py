"""Reversible attribute patches, so layers are timed from outside ``src/``."""

from __future__ import annotations


class Patches:
    """Replace attributes on modules or classes; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def time(self, timer, owner, name: str, layer: str) -> None:
        """Time every call of ``owner.name`` as a span of ``layer``."""
        self.replace(owner, name, lambda original: timer.wrap(original, layer))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
