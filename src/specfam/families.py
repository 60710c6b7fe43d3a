"""Parameter-indexed operator families on one-dimensional grids.

Built-in generators cover the standard test models: a truncated first-order
operator with a flux parameter (``dirac_circle``), a perturbed oscillator
ladder (``harmonic_perturbed``), a single eigenvalue escaping through infinity
(``tangent_blowup``), one linear crossing against fixed padding
(``linear_crossing``), seeded smooth random paths (``random_crossings``), and
explicit matrices loaded from a JSON file (``matrix_path_file``).

Every generator is deterministic given the spec, the grid and the seed.  A
loaded matrix whose off-diagonal entries are all zero is stored in diagonal
form with its exact decomposition, unless ``eigh`` would round its
eigenvalues (``spectral._exact_if_diagonal``); every other one is dense.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FamilyModelError, NonFiniteEntry, NotHermitianError
from .spectral import (
    HermitianOperator,
    RealWindow,
    SpectralDecomposition,
    _decomposed_stack,
    _exact_if_diagonal,
    _hermitian_stack,
    _stack_operators,
    bounded_transform,
    decompose,
    diagonal_operator,
    hermitian_norm,
    spectral_projection,
)

FAMILY_KINDS = (
    "dirac_circle",
    "harmonic_perturbed",
    "tangent_blowup",
    "linear_crossing",
    "random_crossings",
    "matrix_path_file",
)

#: truncation-stability tolerance for closed-form models
TAU_TRUNC_ANALYTIC = 1e-8
#: truncation-stability tolerance for file-loaded models
TAU_TRUNC_FILE = 1e-3

_POLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ParameterGrid:
    """Strictly increasing parameter values; at least two points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a parameter grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def linspace(cls, start: float, end: float, count: int) -> "ParameterGrid":
        return cls(np.linspace(start, end, count))

    def __len__(self) -> int:
        return self.points.size

    def __getitem__(self, i: int) -> float:
        return float(self.points[i])


@dataclass(frozen=True)
class FamilySpec:
    """Which generator to run, at which truncation dimension, with what knobs."""

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise FamilyModelError(
                f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}"
            )
        if self.kind != "matrix_path_file" and self.dim < 1:
            raise FamilyModelError("truncation dimension must be positive")
        if self.kind == "dirac_circle":
            if self.dim < 3 or self.dim % 2 == 0:
                raise FamilyModelError(
                    "dirac_circle needs an odd dimension 2N+1 with N >= 1"
                )

    def with_dim(self, dim: int) -> "FamilySpec":
        return FamilySpec(self.kind, dim, self.params)


@dataclass(frozen=True, eq=False)
class FamilySample:
    """One Hermitian operator per grid point; only decompositions are cached."""

    grid: ParameterGrid
    operators: tuple[HermitianOperator, ...]

    def __post_init__(self):
        ops = tuple(self.operators)
        if len(ops) != len(self.grid):
            raise ValueError("one operator per grid point required")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise ValueError(f"all operators must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    def __len__(self) -> int:
        return len(self.grid)

    @cached_property
    def decompositions(self) -> tuple[SpectralDecomposition, ...]:
        return tuple(decompose(op) for op in self.operators)

    @cached_property
    def eigenvalue_matrix(self) -> np.ndarray:
        """Row y holds the ascending eigenvalues of the operator at grid point y."""
        mat = np.vstack([d.eigenvalues for d in self.decompositions])
        mat.setflags(write=False)
        return mat

    def shifted(self, lam: float) -> "FamilySample":
        """The family minus ``lam``; decompositions shift with it exactly, and
        an operator not yet decomposed gets its own eigh."""
        return FamilySample(self.grid, tuple(op.shifted(lam) for op in self.operators))

    def bounded_transformed(self) -> "FamilySample":
        """Fiberwise bounded transform; window ranks correspond exactly."""
        return FamilySample(self.grid, tuple(bounded_transform(op) for op in self.operators))

    def reversed(self) -> "FamilySample":
        pts = -self.grid.points[::-1]
        return FamilySample(ParameterGrid(pts), self.operators[::-1])

    def restricted(self, lo_index: int, hi_index: int) -> "FamilySample":
        """Sub-sample on grid indices lo..hi inclusive (operators shared)."""
        return FamilySample(
            ParameterGrid(self.grid.points[lo_index:hi_index + 1]),
            self.operators[lo_index:hi_index + 1],
        )


def _path_coefficients(value, default):
    """Normalize a path parameter: constant, (offset, slope), or callable."""
    if value is None:
        value = default
    if callable(value):
        return value
    if np.isscalar(value):
        const = float(value)
        return lambda x: const
    a0, a1 = (float(v) for v in value)
    return lambda x: a0 + a1 * x


def _padding_values(count: int) -> list[float]:
    """Fixed padding spectrum 2, -2, 3, -3, ... used by the crossing models."""
    vals = []
    k = 2
    while len(vals) < count:
        vals.append(float(k))
        if len(vals) < count:
            vals.append(float(-k))
        k += 1
    return vals


def _hilbert_matrix(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return 1.0 / (1.0 + idx[:, None] + idx[None, :])


def _distance_to_pole(x: float) -> float:
    # poles of tan(pi x) sit at half-integers
    frac = (x - 0.5) % 1.0
    return min(frac, 1.0 - frac)


def random_seed(value) -> int:
    """A ``random_crossings`` seed as an int in [0, 2**64).

    An integral float such as 2.0 counts, as it does in a config; a bool, a
    fraction, a string or a value out of range raises ``FamilyModelError``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 0 <= value < 2**64):
        raise FamilyModelError(f"random_crossings seed must be an integer in [0, 2**64), "
                               f"got {value!r}")
    return int(value)


class _RandomPath:
    """Smooth seeded path: sinusoidal eigenvalue branches in a fixed random basis.

    Every branch crosses zero twice per unit of the parameter, and the
    crossings are staggered into per-branch slots (with random jitter) so
    that no two branches sit near zero at the same parameter value.  That
    keeps the zero-straddling spectral gap bounded below along the path,
    which is what branch-tracking needs from a sufficiently fine grid.
    """

    def __init__(self, dim: int, seed: int):
        rng = np.random.default_rng(np.uint64(random_seed(seed)))
        slots = rng.permutation(dim).astype(float)
        jitter = rng.uniform(-0.2, 0.2, dim)
        self.phases = (slots + 0.5 + jitter) * 0.5 / dim
        self.amplitudes = rng.uniform(0.5, 0.8, dim)
        self.signs = rng.choice([-1.0, 1.0], dim)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(raw)
        self.basis = q

    def matrices(self, points: np.ndarray) -> np.ndarray:
        """The (n, d, d) stack of the path's matrices at the n ``points``."""
        branch = self.signs * self.amplitudes * np.sin(
            2.0 * np.pi * (points[:, None] + self.phases)
        )
        return (self.basis * branch[:, None, :]) @ self.basis.conj().T


def load_matrix_path(path: str, build=list) -> tuple[ParameterGrid, list]:
    """Read the explicit-matrix JSON format: dim, grid, matrices of [re, im] pairs.

    A well-formed file is streamed by ``_fast_matrix_path``, which never
    builds the nested lists of ``json``; only a file it does not certify is
    read whole, by ``_json_matrix_path``, whose errors are the reader's
    errors.  Both read every number token with ``json``'s own number
    scanner, integers as floats, except that the fast route fills a token
    spelled exactly ``0.0`` with the +0.0 that the scanner would read, so
    they agree bit for bit.  The fast route
    reads the file in two passes of ``_CHUNK`` bytes at a time: the first
    checks every byte and locates the matrices, the second checks their
    structure and decodes their numbers from the same bytes.  Each block of
    whole matrices goes, as soon as it is decoded, to ``build``, a function
    of an (n, dim, dim) complex stack that returns its items (``list``, the
    default, returns the matrices); the items of every block are returned.
    Neither the file's text nor a stack of all its matrices is ever held,
    so the peak memory is what ``build`` keeps plus about one read.

    ``build`` refuses a block by raising ``NonFiniteEntry`` or
    ``NotHermitianError``.  The file is then read by ``_json_matrix_path``,
    which returns the raw matrices, not ``build``'s items, so that the
    caller can name the file's other errors before a refused matrix.
    """
    try:
        with open(path, "rb") as fh:
            # both passes seek, so a pipe is read whole first
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            fast = _fast_matrix_path(path, source, build)
            if fast is None:
                source.seek(0)
                data = source.read()
    except OSError as exc:
        raise FamilyModelError(f"cannot read matrix path file {path}: {exc}") from exc
    return fast if fast is not None else _json_matrix_path(path, data)


#: JSON's names for the types ``json`` builds
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               float: "number", int: "number", type(None): "null"}


def _matrix_header(path: str, doc) -> tuple[int, ParameterGrid, list]:
    """The dim, the grid and the raw matrices of a parsed file.

    As in a config, a bool is no number and an integral float counts as an
    integer.
    """
    def malformed(reason) -> FamilyModelError:
        return FamilyModelError(f"malformed matrix path file {path}: {reason}")

    try:
        dim, grid, raw = doc["dim"], doc["grid"], doc["matrices"]
    except (KeyError, TypeError) as exc:
        raise malformed(exc) from exc
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise malformed(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(grid, list):
        raise malformed(f"grid must be an array of numbers, got {_JSON_TYPES[type(grid)]}")
    for k, x in enumerate(grid):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise malformed(f"grid entry {k} is not a number: {x!r}")
    points = np.asarray(grid, dtype=float)
    if not np.isfinite(points).all():
        raise malformed("grid points must be finite")
    try:
        grid = ParameterGrid(points)
    except ValueError as exc:
        raise malformed(exc) from exc
    if not isinstance(raw, list):
        raise malformed(f"matrices must be an array, got {_JSON_TYPES[type(raw)]}")
    return dim, grid, raw


def _fast_matrix_path(path: str, fh, build=list) -> tuple[ParameterGrid, list] | None:
    """The open binary file ``fh`` read without ``json`` building its matrices, or None.

    Pass 1, ``_matrices_value``, locates the ``"matrices"`` value; the bytes
    outside it are then read again and parsed with ``[]`` in its place.
    Pass 2, ``_matrix_numbers``, reads the value, accepts only ``len(grid)``
    dim x dim matrices of pairs with one finite JSON number per slot, and
    hands them to ``build`` a block at a time; what it returns are the
    items ``build`` made.  A file with non-ASCII bytes or a backslash, or
    with ``"matrices"`` anywhere but once, falls back (None), as does every
    error and every block ``build`` refuses: ``_json_matrix_path`` reads it.
    """
    span = _matrices_value(fh)
    if span is None:
        return None
    after, start, end = span
    fh.seek(0)
    head = fh.read(start)
    if head[after:].strip(b" \t\n\r") != b":":
        return None
    fh.seek(end)
    try:
        doc = json.loads(head + b"[]" + fh.read(), parse_int=float)
        dim, grid, _ = _matrix_header(path, doc)
    except (ValueError, RecursionError):
        return None
    count = len(grid)
    # every pair takes at least six bytes, so a bogus header builds no huge skeleton
    if 6 * dim * dim * count > end - start:
        return None
    items = _matrix_numbers(fh, start, end, count, dim, build)
    return None if items is None else (grid, items)


def _matrices_value(fh) -> tuple[int, int, int] | None:
    """Pass 1: the offsets where the ``"matrices"`` key ends and its value starts and ends.

    The file is read ``_CHUNK`` bytes at a time; it is refused (None) if any
    byte is non-ASCII or a backslash, or if the key occurs anywhere but
    once.  The last ``len(key) - 1`` bytes are carried across reads, so a
    key that a read cuts, even one longer than a read, still counts.  The
    value starts at the first ``[`` after the key and ends after the last
    ``]`` before the first ``}`` or ``"`` after that: a valid value holds
    neither, and one of them follows it in a valid file.
    """
    key = b'"matrices"'
    found, after, start, end, stopped = 0, -1, -1, -1, False
    carry, pos = b"", 0
    while piece := fh.read(_CHUNK):
        if not piece.isascii() or b"\\" in piece:
            return None
        window = carry + piece
        found += window.count(key)
        if found > 1:
            return None
        if found and after < 0:
            after = pos - len(carry) + window.find(key) + len(key)
        if after >= 0 and start < 0:
            k = piece.find(b"[", max(after - pos, 0))
            start = pos + k if k >= 0 else -1
        if start >= 0 and not stopped:
            lo = max(start - pos, 0)
            stops = [k for k in (piece.find(b"}", lo), piece.find(b'"', lo)) if k >= 0]
            k = piece.rfind(b"]", lo, min(stops, default=len(piece)))
            end = pos + k + 1 if k >= 0 else end
            stopped = bool(stops)
        carry = window[-(len(key) - 1):]
        pos += len(piece)
    return (after, start, end) if found == 1 and end > start else None


def _json_matrix_path(path: str, data: bytes) -> tuple[ParameterGrid, list[np.ndarray]]:
    """The general reader: ``json`` builds the whole document, then each matrix is checked.

    Integer tokens are read as floats, so a token too large for a double
    becomes an infinity (and is refused below) and ``-0`` reads as -0.0.
    """
    try:
        doc = json.loads(data.decode("utf-8"), parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise FamilyModelError(f"malformed matrix path file {path}: {exc}") from exc
    dim, grid, raw = _matrix_header(path, doc)
    if len(raw) != len(grid):
        raise FamilyModelError(f"malformed matrix path file {path}: matrix count {len(raw)} "
                               f"does not match grid length {len(grid)}")
    matrices = []
    for y, m in enumerate(raw):
        try:
            arr = np.asarray(m, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FamilyModelError(
                f"malformed matrix path file {path}: matrix at grid index {y}: {exc}"
            ) from exc
        if arr.shape != (dim, dim, 2):
            raise FamilyModelError(
                f"malformed matrix path file {path}: matrix at grid index {y} must be "
                f"{dim}x{dim} of [re, im] pairs, got shape {arr.shape}"
            )
        # numpy reads true and false as 1.0 and 0.0; as in the header, they are no numbers
        if any(isinstance(v, bool) for row in m for pair in row for v in pair):
            raise FamilyModelError(
                f"malformed matrix path file {path}: matrix at grid index {y} holds "
                f"a boolean, not a number"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            i, j, _ = (int(k) for k in np.argwhere(~finite)[0])
            raise NonFiniteEntry((i, j), complex(arr[i, j, 0], arr[i, j, 1]), grid_index=y)
        matrices.append(arr[..., 0] + 1j * arr[..., 1])
    return grid, matrices


_NUMBER_BYTES = b"0123456789+-.eE"
_WHITESPACE = b" \t\n\r"
_NUMBERS_AS_ZERO = bytes.maketrans(_NUMBER_BYTES, b"0" * len(_NUMBER_BYTES))
_BRACKETS_AS_SPACE = bytes.maketrans(b"[]", b"  ")
#: bytes read per step, in both passes
_CHUNK = 1 << 16
#: the number scanner of ``_json_matrix_path``, which reads integers as floats too
_NUMBER_READER = json.JSONDecoder(parse_int=float)
#: bytes at the front of a piece whose zero slots decide how it is read
_ZERO_PROBE = 2048
#: the share of zero slots in the probe from which the zero scan pays.  On
#: real 201 x 41^2 files, every imaginary part 0.0, the scan took 1.07-1.23
#: times as long as reading every slot with the scanner at a share of 0.50,
#: 0.98 times at 0.63, 0.83-0.93 times at 0.70-0.76, and 0.46 times on a
#: diagonal file (0.99)
_ZERO_SHARE = 0.6


def _matrix_numbers(fh, start: int, end: int, count: int, dim: int, build) -> list | None:
    """Pass 2: ``build``'s items of the ``count`` matrices the file's bytes ``start:end`` spell.

    The value inside its outer brackets is read ``_CHUNK`` bytes at a time
    and cut after the last comma read, the rest carried to the next read, so
    no token is split.  Each piece is checked by ``_piece_checked`` and read
    by ``_piece_numbers``: its ``0.0`` tokens are filled as +0.0 and the
    others read by ``json`` as a comma-separated list, where an empty slot,
    two tokens in one slot or a malformed token is an error, and so is a
    piece of one empty slot, or it leaves the count short.  Structure and
    numbers are thus checked on the same bytes, and
    the items are returned only if ``json`` would read the whole as
    ``count`` dim x dim matrices of [re, im] pairs, all finite, and
    ``build`` refused none of them.

    A piece's numbers go into a float buffer after the partial matrix the
    last piece left, re and im side by side; its whole matrices are made
    ``re + 1j * im``, the expression ``_json_matrix_path`` applies, and
    handed to ``build`` as one block, and the partial matrix left over moves
    to the buffer's front.  So the peak is ``build``'s items plus one
    piece's text and numbers and at most one partial matrix.
    """
    row = b"[" + b",".join([b"[,]"] * dim) + b"]"
    # the skeleton, ``unit`` count times, is the inside of the value and a comma,
    # the one ``_piece_checked`` puts back after the last piece
    unit = b"[" + b",".join([row] * dim) + b"],"
    per = 2 * dim * dim
    items = []
    buffer = np.empty(0)
    held = done = filled = 0
    carry = b""
    fh.seek(start + 1)
    left = end - start - 2
    while left:
        more = fh.read(min(_CHUNK, left))
        if not more:  # the file shrank since pass 1
            return None
        left -= len(more)
        text = carry + more
        cut = text.rfind(b",") if left else len(text)
        if cut < 0:
            carry = text
            continue
        piece, carry = text[:cut], text[cut + 1:]
        del text, more  # only the piece is held while it is checked and read
        done = _piece_checked(piece, unit, done)
        if not 0 <= done <= count * len(unit):
            return None
        read = _piece_numbers(piece)
        del piece
        if read is None:
            return None
        zero, numbers = read
        slots = len(numbers) if zero is None else zero.size
        filled += slots
        size = held + slots
        if size > buffer.size:
            grown = np.empty(size)
            grown[:held] = buffer[:held]
            buffer = grown
        if zero is None:
            buffer[held:size] = numbers
        else:
            buffer[held:size] = 0.0
            buffer[held:size][~zero] = numbers
        del numbers, zero  # freed before the block is made complex
        # checked as floats: 1j * inf would make a NaN, with a warning
        if not np.isfinite(buffer[held:size]).all():
            return None
        whole = size - size % per
        if whole:
            pairs = buffer[:whole].reshape(-1, dim, dim, 2)
            block = pairs[..., 0] + 1j * pairs[..., 1]
            try:
                items += build(block)
            except (NonFiniteEntry, NotHermitianError):
                return None
            del block
        held = size - whole
        buffer[:held] = buffer[whole:size]
    return items if done == count * len(unit) and filled == count * per else None


def _piece_numbers(piece: bytes) -> tuple[np.ndarray | None, list] | None:
    """A checked piece's numbers as ``(zero, numbers)``, or None if ``json`` refuses a slot.

    ``_piece_checked`` has put every number alone in a pair slot, so with
    the brackets deleted each slot lies between two commas.  A piece whose
    first ``_ZERO_PROBE`` bytes show fewer than ``_ZERO_SHARE`` zero slots
    is read whole by the scanner, its brackets read as spaces, and ``zero``
    is None.  Otherwise ``zero`` marks the slots that are exactly ``0.0`` or
    `` 0.0``, which ``json`` reads as +0.0, and ``numbers`` are the scanner's
    reads of the other slots, gathered in order; every other spelling of a
    zero goes to the scanner too, and a kept slot that reads as no number
    (an empty one, alone) is refused by the count.  Read whole, a piece of
    one empty slot reads as no number, which leaves the caller's count short.
    """
    probe = piece[:_ZERO_PROBE].translate(None, b"[]")
    # with every comma doubled, no two zero slots share one
    doubled = probe.replace(b",", b",,")
    if doubled.count(b",0.0,") + doubled.count(b", 0.0,") < _ZERO_SHARE * probe.count(b","):
        zero, text = None, f"[{piece.translate(_BRACKETS_AS_SPACE).decode()}]"
    else:
        zero, kept = _zero_slots(piece)
        text = f"[{kept[:-1].decode()}]"
    try:
        numbers = _NUMBER_READER.decode(text)
    except ValueError:
        return None
    if zero is not None and len(numbers) + np.count_nonzero(zero) != zero.size:
        return None
    return zero, numbers


def _zero_slots(piece: bytes) -> tuple[np.ndarray, bytes]:
    """Which slots of ``piece``, its brackets deleted, are ``0.0`` or `` 0.0``, and the
    other slots, each with a comma after it."""
    # four bytes before the first slot, so that no index below falls under 0,
    # and a comma after the last, so that every slot ends at one
    b = np.frombuffer(b"    " + piece.translate(None, b"[]") + b",", np.uint8)
    ends = np.flatnonzero(b == ord(","))
    widths = np.diff(ends, prepend=3)
    # tail[k]: b[k:k + 3] is 0.0
    tail = (b[:-2] == ord("0")) & (b[1:-1] == ord(".")) & (b[2:] == ord("0"))
    # shifted in place, as one piece's arrays set the reader's peak
    ends -= 3  # where each slot's last three bytes start
    zero = tail[ends]
    del tail
    ends -= 1  # the byte before them, a space in `` 0.0``
    zero &= (widths == 4) | (widths == 5) & (b[ends] == ord(" "))
    del ends
    return zero, b[4:][np.repeat(~zero, widths)].tobytes()


def _piece_checked(piece: bytes, unit: bytes, done: int) -> int:
    """The skeleton's length after ``piece`` and the comma after it, or -1.

    ``done`` bytes of the skeleton, ``unit`` repeated, precede ``piece``:
    - with the number bytes and whitespace deleted, and the comma it was cut
      at put back, the piece continues the skeleton: the matrices' brackets
      and commas, ``[,]`` for each pair; any other byte survives and fails;
    - with whitespace deleted and every number byte read as ``0``, no ``0[``
      or ``]0`` occurs, so every number sits in a pair (neither can span the
      comma a piece is cut at).
    """
    bare = piece.translate(None, _NUMBER_BYTES + _WHITESPACE) + b","
    phase = done % len(unit)
    if not (unit * ((phase + len(bare)) // len(unit) + 1)).startswith(bare, phase):
        return -1
    placed = piece.translate(_NUMBERS_AS_ZERO, _WHITESPACE)
    return -1 if b"0[" in placed or b"]0" in placed else done + len(bare)


def _file_operators(block: np.ndarray) -> list[HermitianOperator]:
    """The operators of an (n, dim, dim) stack of file matrices.

    The stack is validated by one ``_hermitian_stack`` call, the rule of
    ``HermitianOperator``, so a refused matrix names its index in the stack;
    each operator is then put in diagonal form where ``_exact_if_diagonal``
    keeps ``eigh``'s bits.  Validated densely first, a diagonal file is
    refused as a dense one is.  Each matrix is copied out of the stack, as a
    dense operator holding a row would keep the whole stack alive, the rows
    of its neighbours in diagonal form too.
    """
    sym = _hermitian_stack(block)
    ops = []
    for k in range(len(sym)):
        own = sym[k:k + 1].copy()
        own.setflags(write=False)
        ops.append(_exact_if_diagonal(_stack_operators(own)[0]))
    return ops


def _at_each_point(gen, values) -> tuple[HermitianOperator, ...]:
    """``gen`` of each value in turn; a refused matrix names its grid index."""
    ops = []
    for y, value in enumerate(values):
        try:
            ops.append(gen(value))
        except (NonFiniteEntry, NotHermitianError) as exc:
            raise exc.at_grid_index(y) from None
    return tuple(ops)


def _make_generator(spec: FamilySpec):
    """The function that builds the family's operators at an array of grid points.

    The dense generators, ``harmonic_perturbed`` and ``random_crossings``,
    build the whole grid at once: one (n, d, d) stack of matrices, validated
    in one pass and decomposed by one stacked ``eigh``, whose eigenpairs each
    operator carries (``spectral._decomposed_stack``).  The other generators
    build one operator per point.  ``dirac_circle`` and ``tangent_blowup`` are
    diagonal and carry their exact decompositions.  ``linear_crossing`` is
    diagonal too but stays dense and is decomposed by ``eigh`` only when
    read, because the benchmark's own tests pin its decomposition work.
    """
    kind, dim, params = spec.kind, spec.dim, spec.params
    if kind == "dirac_circle":
        n_modes = (dim - 1) // 2
        alpha = _path_coefficients(params.get("alpha"), (0.0, 1.0))
        modes = np.arange(-n_modes, n_modes + 1, dtype=float)

        def gen(x):
            return diagonal_operator(modes + alpha(x))

        return lambda points: _at_each_point(gen, points)
    if kind == "harmonic_perturbed":
        coupling = _path_coefficients(params.get("coupling"), 0.0)
        ladder = np.diag(np.arange(dim, dtype=float) + 0.5 - dim / 2.0)
        mixing = _hilbert_matrix(dim)

        def matrices(points):
            return ladder + np.array([coupling(x) for x in points])[:, None, None] * mixing

        return lambda points: _decomposed_stack(matrices(points))
    if kind == "tangent_blowup":
        pad = params.get("padding")
        pad = list(pad) if pad is not None else _padding_values(dim - 1)
        if len(pad) != dim - 1:
            raise FamilyModelError(f"padding must supply {dim - 1} values")

        def gen(x):
            if _distance_to_pole(x) < _POLE_TOLERANCE:
                raise FamilyModelError(
                    f"grid point {x!r} sits on a pole of tan(pi x)"
                )
            return diagonal_operator([math.tan(math.pi * x)] + pad)

        return lambda points: _at_each_point(gen, points)
    if kind == "linear_crossing":
        pad = _padding_values(dim - 1)

        # diagonal, but left on eigh: the benchmark's tests pin its decomposition work
        def gen(x):
            return HermitianOperator(np.diag([x - 0.5] + pad))

        return lambda points: _at_each_point(gen, points)
    if kind == "random_crossings":
        path = _RandomPath(dim, params.get("seed", 0))
        return lambda points: _decomposed_stack(path.matrices(points))
    raise FamilyModelError(f"no generator for kind {kind!r}")


def sample(spec: FamilySpec, grid: ParameterGrid | None = None) -> FamilySample:
    """Evaluate the family on the grid; deterministic given spec, grid and seed.

    ``harmonic_perturbed`` and ``random_crossings`` are built and decomposed
    for the whole grid at once (see ``_make_generator``).  A matrix file's
    matrices are validated by ``_file_operators`` a block at a time, as
    ``load_matrix_path`` decodes them, so only the family's operators are
    kept, plus about one read.  A refused matrix names its grid index.
    """
    if spec.kind == "matrix_path_file":
        path = spec.params.get("path")
        if not path:
            raise FamilyModelError("matrix_path_file needs params['path']")
        file_grid, loaded = load_matrix_path(path, build=_file_operators)
        # a file the fast route refused comes back as raw matrices, validated
        # only after the dimension and grid checks, whose errors come first
        raw = isinstance(loaded[0], np.ndarray)
        stored = loaded[0].shape[0] if raw else loaded[0].dim
        if stored != spec.dim:
            raise FamilyModelError(f"file stores dimension {stored}, spec says {spec.dim}")
        if grid is not None and (
            len(grid) != len(file_grid)
            or not np.allclose(grid.points, file_grid.points, atol=1e-12, rtol=0.0)
        ):
            raise FamilyModelError("provided grid does not match the grid stored in the file")
        ops = _file_operators(np.array(loaded)) if raw else loaded
        return FamilySample(file_grid, tuple(ops))
    if grid is None:
        raise FamilyModelError("a parameter grid is required for generated families")
    return FamilySample(grid, _make_generator(spec)(grid.points))


def _truncation_offset(kind: str, dim_small: int, dim_big: int) -> int:
    # centered models embed in the middle of the larger basis; everything else
    # nests in the leading block
    if kind in ("dirac_circle", "harmonic_perturbed"):
        return (dim_big - dim_small) // 2
    return 0


def _file_truncated_sample(full: FamilySample, dim: int) -> FamilySample:
    if dim > full.dim:
        raise FamilyModelError(
            f"cannot truncate the stored dimension {full.dim} up to {dim}"
        )
    ops = tuple(HermitianOperator(op.entries[:dim, :dim]) for op in full.operators)
    return FamilySample(full.grid, ops)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.inf
    d_ab = np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1))
    d_ba = np.max(np.min(np.abs(b[:, None] - a[None, :]), axis=1))
    return float(max(d_ab, d_ba))


@dataclass(frozen=True)
class TruncationStep:
    dim_small: int
    dim_big: int
    max_hausdorff: float
    max_projection_distance: float
    stable: bool


@dataclass(frozen=True)
class TruncationReport:
    window: RealWindow
    tolerance: float
    steps: tuple[TruncationStep, ...]
    stable: bool


def truncation_check(spec: FamilySpec, grid: ParameterGrid | None, dims,
                     window: RealWindow, tau: float | None = None,
                     smp: FamilySample | None = None) -> TruncationReport:
    """Compare window spectra and projections across increasing truncations.

    For each consecutive pair of dimensions the report records the worst
    Hausdorff distance between the in-window eigenvalue sets and the worst
    distance between the window projections, the larger one compressed onto
    the smaller space.  ``stable`` means both stay below the tolerance.

    A ``matrix_path_file`` family is read once, and not at all when the
    caller passes the ``smp`` it already sampled; other kinds ignore ``smp``.
    """
    dims = [int(d) for d in dims]
    if sorted(dims) != dims or len(dims) < 2:
        raise ValueError("dims must be an increasing list with at least two entries")
    if tau is None:
        tau = TAU_TRUNC_FILE if spec.kind == "matrix_path_file" else TAU_TRUNC_ANALYTIC

    if spec.kind == "matrix_path_file":
        # at most one read of the file; each dim is its leading block
        full = smp if smp is not None else sample(spec, None)
        samples = {d: _file_truncated_sample(full, d) for d in dims}
    else:
        samples = {d: sample(spec.with_dim(d), grid) for d in dims}
    steps = []
    for d1, d2 in zip(dims, dims[1:]):
        off = _truncation_offset(spec.kind, d1, d2)
        worst_h = 0.0
        worst_p = 0.0
        s1, s2 = samples[d1], samples[d2]
        for op1, op2 in zip(s1.operators, s2.operators):
            w1 = decompose(op1).eigenvalues
            w2 = decompose(op2).eigenvalues
            worst_h = max(worst_h, _hausdorff(w1[window.mask(w1)], w2[window.mask(w2)]))
            p1 = spectral_projection(op1, window).projection.entries
            p2 = spectral_projection(op2, window).projection.entries
            compressed = p2[off:off + d1, off:off + d1]
            worst_p = max(worst_p, hermitian_norm(p1 - compressed))
        steps.append(TruncationStep(d1, d2, worst_h, worst_p,
                                    worst_h <= tau and worst_p <= tau))
    return TruncationReport(window, tau, tuple(steps), all(s.stable for s in steps))


@dataclass(frozen=True)
class EssentialSignReport:
    passed: bool
    threshold: int
    min_negative: int
    min_positive: int
    failing_points: tuple[int, ...]


def essential_sign_check(smp: FamilySample, k: int = 1) -> EssentialSignReport:
    """Finite surrogate of "neither essentially positive nor essentially negative".

    Passes when every grid operator has at least ``k`` strictly negative and
    ``k`` strictly positive eigenvalues.  The threshold is a recorded choice,
    not a claim of fidelity: at finite dimension every operator is both
    essentially positive and essentially negative in the literal sense.
    """
    if k < 1:
        raise ValueError("sign-count threshold k must be at least 1")
    ev = smp.eigenvalue_matrix
    negatives = np.sum(ev < 0.0, axis=1)
    positives = np.sum(ev > 0.0, axis=1)
    bad = np.nonzero((negatives < k) | (positives < k))[0]
    return EssentialSignReport(
        passed=bad.size == 0,
        threshold=k,
        min_negative=int(negatives.min()),
        min_positive=int(positives.min()),
        failing_points=tuple(int(i) for i in bad),
    )
