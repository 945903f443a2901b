"""Profile file readers and writers, and the text reading they share."""

from __future__ import annotations

from pathlib import Path

from ..model import ProfileError


def profile_text(path: Path) -> str:
    """The UTF-8 text of a profile file; an invalid byte raises
    :class:`ProfileError` naming ``path:line``."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ProfileError(f"{path}:{line}: invalid UTF-8 byte "
                           f"{raw[exc.start]:#04x}") from None
