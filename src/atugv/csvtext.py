"""The byte format of the CSV files that `atugv run` writes: the text of
Python's format(v, ".9g") for whole float64 arrays at once, and the rows
around it (`write_csv`).

A value's text is built in two little-endian uint64 words (16 bytes, NUL
where no character goes). Rows are laid out as NUL-padded bytes a whole
step at a time, each text copied as one `void` item, then the NUL bytes are
dropped. Values the vectorized path cannot decide exactly use format().
"""
from __future__ import annotations

import numpy as np

WIDTH = 16  # bytes of the longest text, "-1.23456789e-308"
_U8, _U24, _U32, _U56, _U64 = (np.uint64(n) for n in (8, 24, 32, 56, 64))
# Decimal exponents x, by table index 31 - x: those whose nine digits scale
# exactly (x <= 30; x = 31 only when 9.99999999...e30 rounds up), then one
# index for an empty field.
_EXPONENTS = range(31, -15, -1)
_ZERO, _EMPTY = 31, len(_EXPONENTS)


def _ascii_words(texts) -> np.ndarray:
    return np.array([int.from_bytes(t.encode(), "little") for t in texts], dtype=np.uint64)


def _g9_tables():
    # 10**(8 - x) as a factor or a divisor, each exact in float64, so the
    # scaled value is rounded once; NaN where it is not exact.
    pow10 = [float(10**k) if k <= 22 else np.nan for k in range(24)]
    scale = np.array([(pow10[max(8 - x, 0)], pow10[max(x - 8, 0)]) for x in _EXPONENTS]).T
    # The four ASCII digits of 0..9999 in one word, most significant in the
    # low byte, and how many of them are significant as the high or the low
    # half of eight digits (trailing zeros dropped).
    n = np.arange(10000)
    digits4 = sum(
        (n // 10 ** (3 - i) % 10 + 48).astype(np.uint64) << np.uint64(8 * i) for i in range(4)
    )
    trailing = sum((n % 10**i == 0).astype(np.uint8) for i in range(1, 5))
    significant = (4 - trailing, 8 - trailing)
    # Layout by exponent, in [sign][zeros][d0..d8]: digits before the point
    # (kept even when zero), zeros in front of the digits ("0.00..."), the
    # byte where the point goes, and the exponent suffix after d8.
    fixed = [-4 <= x < 9 for x in _EXPONENTS]
    lead = [x + 1 if 0 <= x < 9 else 0 if f else 1 for x, f in zip(_EXPONENTS, fixed)]
    zeros = [-x if f and x < 0 else 0 for x, f in zip(_EXPONENTS, fixed)]
    point = [x + 2 if 0 <= x < 9 else 2 for x in _EXPONENTS]
    suffix = ["" if f else f"e{x:+03d}" for x, f in zip(_EXPONENTS, fixed)]
    low = np.array([(1 << min(8 * p, 64)) - 1 for p in range(10)], dtype=np.uint64)
    layout = {  # the empty field leads with no digits and keeps none
        "lead": np.array(lead + [0], dtype=np.uint8),
        "zeros": _ascii_words(["0" * z for z in zeros] + [""]) << _U8,
        "shift": np.uint64(8) * (1 + np.array(zeros + [0], dtype=np.uint64)),
        "head_lo": low[np.minimum(point + [2], 8)],
        "head_hi": low[np.maximum(np.array(point + [2]) - 8, 0)],
        "dot_lo": np.array([0x2E << 8 * p if p < 8 else 0 for p in point + [2]], dtype=np.uint64),
        "dot_hi": np.array([0x2E << 8 * (p - 8) if p >= 8 else 0 for p in point + [2]], dtype=np.uint64),
        "suffix": _ascii_words(suffix + [""]) << _U24,
    }
    return scale, digits4, significant, low, layout


_SCALE, _DIGITS4, _SIGNIFICANT, _LOW, _LAYOUT = _g9_tables()


def _nine_digits(v: np.ndarray):
    """Each value rounded to nine significant digits: the digits as an
    integer in [1e8, 1e9) (0 for zero, NaN and values left to format()),
    the table index of the decimal exponent, and whether format() must
    give the text instead.

    The value is scaled by an exact power of ten, so the scaled value s is
    rounded once. Below 1e9 every n + 0.5 is a float, and rounding is
    monotone, so s is never on the wrong side of one: rounding s to an
    integer rounds the exact value alike, unless s is such a tie itself.
    Ties, exponents whose power of ten is not exact, subnormals and
    infinities are left to format().
    """
    a = np.abs(v)
    with np.errstate(all="ignore"):
        i = 31.0 - np.floor(np.log10(a))
        k = np.fmin(np.fmax(i, 0), len(_EXPONENTS) - 1)
        fast = k == i  # False for 0, NaN, inf, subnormals and x outside -14..31
        k = k.astype(np.intp)
        s = a * _SCALE[0].take(k) / _SCALE[1].take(k)
        off = fast & ((s < 1e8) | (s > 1e9))
        if off.any():  # log10 rounded across a power of ten
            ko = k[off] - np.sign(s[off] - 1e8).astype(np.intp)
            inside = (ko >= 0) & (ko < len(_EXPONENTS))
            k[off] = ko = np.clip(ko, 0, len(_EXPONENTS) - 1)
            s[off] = so = a[off] * _SCALE[0].take(ko) / _SCALE[1].take(ko)
            fast[off] = inside & (so >= 1e8) & (so <= 1e9)
        d = np.rint(s)
        fast &= np.abs(s - d) < 0.5  # False at a tie and for NaN
    d = np.where(fast, d, 0.0)
    k = np.where(fast, k, np.where(np.isnan(v), _EMPTY, _ZERO))
    carry = d == 1e9
    if carry.any():
        d[carry] = 1e8
        k[carry] -= 1
    return d.astype(np.uint64), k, ~fast & (a > 0)


def _kept_digits(d: np.ndarray, lead: np.ndarray):
    """The ASCII digits of `d` as d0..d7 in one word (d0 in the low byte)
    and d8, NUL past the last non-zero digit unless among the `lead`
    digits before the point; and whether a digit follows the point."""
    q = d // np.uint64(10)
    last = d - np.uint64(10) * q
    hi = q // np.uint64(10000)
    lo = q - np.uint64(10000) * hi
    keep = np.where(lo != 0, _SIGNIFICANT[1].take(lo), _SIGNIFICANT[0].take(hi))
    keep = np.maximum(np.where(last != 0, 9, keep), lead)
    digits = (_DIGITS4.take(hi) | _DIGITS4.take(lo) << _U32) & _LOW.take(np.minimum(keep, 8))
    return digits, (last + np.uint64(48)) * (keep == 9), keep > lead


def _digit_words(v: np.ndarray):
    """[sign][zeros][d0..d8] of each value over two words (w0, w1), NUL
    where no character goes; with the table index of its layout, whether a
    digit follows the point, and whether format() must give the text."""
    d, k, slow = _nine_digits(v)
    digits, last, dot = _kept_digits(d, _LAYOUT["lead"].take(k))
    shift = _LAYOUT["shift"].take(k)
    minus = np.signbit(v) & (k != _EMPTY)
    w0 = minus * np.uint64(0x2D) | _LAYOUT["zeros"].take(k) | digits << shift
    return w0, digits >> (_U64 - shift) | last << shift, k, dot, slow


def g9_bytes(values) -> np.ndarray:
    """format(v, ".9g") of every value as a row of 16 NUL-padded bytes,
    (n, 16) uint8; NaN gives an empty row."""
    v = np.ravel(np.asarray(values, dtype=float))
    w0, w1, k, dot, slow = _digit_words(v)
    # Put the point in at its byte, moving the bytes after it up by one,
    # and the exponent suffix after the digits.
    head = _LAYOUT["head_lo"].take(k)  # the bytes ahead of the point
    moved = w0 & ~head
    out = np.empty((len(v), 2), dtype=np.uint64)
    out[:, 0] = w0 & head | moved << _U8 | _LAYOUT["dot_lo"].take(k) * dot
    head = _LAYOUT["head_hi"].take(k)
    out[:, 1] = (
        w1 & head
        | (w1 & ~head) << _U8
        | moved >> _U56
        | _LAYOUT["dot_hi"].take(k) * dot
        | _LAYOUT["suffix"].take(k)
    )
    out = out.view(np.uint8)
    for j in np.flatnonzero(slow):
        text = format(float(v[j]), ".9g").encode()
        out[j] = 0
        out[j, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


# Bytes of one block of rows in `write_csv`; formatting a block takes
# about seven times this in temporaries. A step wider than this is a block
# of its own.
_CSV_BLOCK_BYTES = 1 << 17


def write_csv(path, header, times, labels, values):
    """CSV at the pathlib.Path `path`, with CRLF line ends, one row per
    time and label: t, the label's integers, then values[k, m, :] for time
    k and label m. Values print as format(v, ".9g"); NaN marks a missing
    value and prints as an empty field."""
    n_steps, n_labels, n_values = values.shape
    label_text = np.array([("," + ",".join(map(str, label))).encode() for label in labels], dtype=bytes)
    label_width = label_text.itemsize
    width = WIDTH + label_width + n_values * (1 + WIDTH) + 2
    steps = max(1, _CSV_BLOCK_BYTES // max(1, n_labels * width))
    time_text, label_text = g9_bytes(times).view(f"V{WIDTH}"), label_text.view(f"V{label_width}")
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, n_steps, steps):
            block = values[start : start + steps]
            buf = np.empty((len(block), n_labels, width), dtype=np.uint8)
            buf[..., :WIDTH].view(f"V{WIDTH}")[..., 0] = time_text[start : start + steps]
            buf[..., WIDTH : WIDTH + label_width].view(f"V{label_width}")[..., 0] = label_text
            fields = buf[..., WIDTH + label_width : -2].reshape(*block.shape, 1 + WIDTH)
            fields[..., 0] = ord(",")
            fields[..., 1:].view(f"V{WIDTH}")[..., 0] = g9_bytes(block).view(f"V{WIDTH}").reshape(block.shape)
            buf[..., -2:].view("V2")[..., 0] = np.void(b"\r\n")
            fh.write(buf.tobytes().translate(None, b"\0"))
