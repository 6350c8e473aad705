"""YAML text for the CLI: its result files out, its configs and outputs in.

`dump_yaml(doc)` returns the bytes of
`yaml.dump(doc, Dumper=CSafeDumper, sort_keys=False)`.  It writes the block
layout itself for the documents the CLI builds: dicts with str keys in
insertion order, lists and tuples, float, int, bool and None, and str values
that PyYAML provably writes plain.  Every other document goes through
`yaml.dump` whole, so its bytes and errors stay PyYAML's: other types (numpy
scalars included), text outside the plain class, long keys, top-level
scalars, and a container reached twice (PyYAML anchors it as `&id001`).
PyYAML's Python representer builds a node per scalar, which made writing a
result file cost more than computing it.

`load_yaml(text)` reads through libyaml when PyYAML was built with it.
"""

from __future__ import annotations

import re

import yaml

_INF = float("inf")
# ASCII text with no space, no indicator character and a letter, digit or
# underscore first: PyYAML's emitters write it plain exactly when the
# resolver reads it back as a str.
_PLAIN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.,=()+/-]*\Z")
_RESOLVE = yaml.resolver.Resolver().resolve
_STR_TAG = "tag:yaml.org,2002:str"
# The Python emitter writes a str key as `? key` once it and its `!!str` tag
# reach 128 characters; libyaml's limit is longer.
_SIMPLE_KEY_LIMIT = 128 - len("!!str")


class _Unsupported(Exception):
    """The document lies outside the subset dump_yaml writes itself."""


class _Writer:
    """One document's lines, the containers met so far and the text
    already shown to be plain."""

    def __init__(self) -> None:
        self.out: list[str] = []
        self.seen: set[int] = set()
        self.known_plain: set[str] = set()

    def plain(self, text: str) -> str:
        if text not in self.known_plain:
            if (
                not _PLAIN.match(text)
                or _RESOLVE(yaml.ScalarNode, text, (True, False)) != _STR_TAG
            ):
                raise _Unsupported
            self.known_plain.add(text)
        return text

    def leaf(self, value) -> str | None:
        """The text of a scalar or empty container; None for a nonempty one."""
        kind = type(value)
        if kind is float:
            # SafeRepresenter.represent_float
            if value != value:
                return ".nan"
            if value == _INF:
                return ".inf"
            if value == -_INF:
                return "-.inf"
            text = repr(value).lower()
            if "." not in text and "e" in text:
                text = text.replace("e", ".0e", 1)
            return text
        if kind is list or kind is dict or kind is tuple:
            if kind is not tuple or value:  # PyYAML never anchors ()
                if id(value) in self.seen:
                    raise _Unsupported
                self.seen.add(id(value))
            if value:
                return None
            return "{}" if kind is dict else "[]"
        if kind is str:
            return self.plain(value)
        if kind is bool:
            return "true" if value else "false"
        if kind is int:
            return str(value)
        if value is None:
            return "null"
        raise _Unsupported

    def block(self, node, indent: int, lead: str) -> None:
        """Append the lines of a nonempty container.  `lead` starts its first
        line (the pending `- ` of enclosing sequence items); later entries
        start at `indent`."""
        out = self.out
        pad = " " * indent
        if type(node) is dict:
            for key, value in node.items():
                if type(key) is not str or len(key) >= _SIMPLE_KEY_LIMIT:
                    raise _Unsupported
                key = self.plain(key)
                text = self.leaf(value)
                if text is not None:
                    out.append(f"{lead}{key}: {text}\n")
                else:
                    out.append(f"{lead}{key}:\n")
                    # a mapping nests two deeper; a sequence keeps the key's indent
                    inner = indent + 2 if type(value) is dict else indent
                    self.block(value, inner, " " * inner)
                lead = pad
        else:
            for item in node:
                text = self.leaf(item)
                if text is not None:
                    out.append(f"{lead}- {text}\n")
                else:
                    self.block(item, indent + 2, lead + "- ")
                lead = pad


def dump_yaml(doc) -> str:
    """yaml.dump(doc, Dumper=CSafeDumper, sort_keys=False), byte for byte;
    the pure-Python SafeDumper where PyYAML was built without libyaml."""
    if type(doc) in (dict, list, tuple):
        writer = _Writer()
        try:
            text = writer.leaf(doc)
            if text is not None:
                return text + "\n"
            writer.block(doc, 0, "")
            return "".join(writer.out)
        except _Unsupported:
            pass
    return yaml.dump(
        doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False
    )


def load_yaml(text: str):
    """safe_load(text) through libyaml when it is available."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
