"""The JSON text of a CLI report without loading `json` (four modules and six
compiled patterns), for `--json` calls only: `dumps(value)` is exactly
`json.dumps(value, sort_keys=True)` for the values a report holds."""

# json's two-character escapes, by UTF-16 code unit; it writes any other unit
# outside ' '..'~' as \uXXXX (ensure_ascii), a surrogate pair above U+FFFF
_SHORT = {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _unit(n: int) -> str:
    return _SHORT.get(n) or (chr(n) if 31 < n < 127 else "\\u%04x" % n)


def dumps(value) -> str:
    """None, bools, ints, strs, lists, and dicts with str keys, which come
    out sorted; any other value raises TypeError."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        # native-order code units: "utf-16" puts a 2-byte BOM first
        units = memoryview(value.encode("utf-16", "surrogatepass")[2:]).cast("H")
        return '"' + "".join(map(_unit, units)) + '"'
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        pairs = (dumps(key) + ": " + dumps(value[key]) for key in sorted(value))
        return "{" + ", ".join(pairs) + "}"
    raise TypeError(f"cannot write {type(value).__name__} as report JSON")
