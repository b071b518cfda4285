"""Pass/fail reports produced by the verification operations.

A report is a named list of labelled items; an item failing carries the
text of the residual it left behind.
Failures are reported, never raised: a failing identity falsifies the engine
and the caller decides what to do with that.
"""

from __future__ import annotations


from .records import FrozenRecord, Record


class CheckItem(FrozenRecord):
    __slots__ = ("label", "ok", "residual")

    def __init__(self, label: str, ok: bool, residual: str | None = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "residual", residual)

    def to_json(self) -> dict:
        out = {"label": self.label, "ok": self.ok}
        if self.residual is not None:
            out["residual"] = self.residual
        return out


class CheckReport(Record):
    __slots__ = ("name", "items")

    def __init__(self, name: str):
        self.name = name
        self.items: list[CheckItem] = []

    def add(self, label: str, ok: bool, residual: str | None = None) -> None:
        self.items.append(CheckItem(label, ok, None if ok else residual))

    def add_residual(self, label: str, residual) -> None:
        """An item that passes iff the polynomial residual is zero."""
        ok = residual.is_zero()
        self.add(label, ok, None if ok else residual.to_text())

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "items": [item.to_json() for item in self.items],
        }
