"""Lockstep Mersenne Twister: B generator states advanced columnwise.

The scan kernel's cost is dominated by *seeding*: every atlas entity
derives its own :class:`random.Random` from 32 bytes of SHA-256
material, and CPython's ``init_by_array`` walk (1,247 sequential state
updates) costs more than all of the entity's draws combined.  This
module runs that walk for a whole batch of streams at once: the state
is a ``(624, B)`` uint32 matrix and each scalar update becomes one
vector operation over all B streams — bit-identical to seeding B
independent ``random.Random`` instances, at a fraction of the per-
stream cost.

The walk never materialises the ``init_genrand(19650218)`` start state,
which is the same for every stream.  Until the first loop wraps, each
step reads one row that no step has written yet, so it XORs that row's
scalar init constant; only the steps after the wrap read stored rows.
Filling the matrix first would write 624 rows (30 MB at the kernel's
batch size) only to read 623 of them back once.

Output generation mirrors CPython exactly: after seeding, ``mti`` sits
at 624, so the first tempered outputs come from a (partial) twist of
the freshly seeded state.  :meth:`LockstepMT.words` materialises
tempered outputs row-by-row — row *k* holds every stream's *k*-th
``getrandbits(32)`` — growing lazily because most scan entities consume
a dozen words while the occasional rejection-loop straggler needs a few
more.

Exactness boundary: CPython builds the ``init_by_array`` key from the
seed integer's 32-bit digits, so a seed whose *top* 32 bits are zero
(probability 2^-32 for SHA-256 material) yields a shorter key than the
lockstep 8-word layout assumes.  Those streams are flagged in
:attr:`LockstepMT.irregular` and must be handled by a scalar fallback;
the vector path never silently mis-seeds them.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:          # pragma: no cover - exercised via HAVE_NUMPY
    np = None

HAVE_NUMPY = np is not None

N_MT = 624          # state words per stream
M_MT = 397          # twist offset
_PARTIAL_LIMIT = N_MT - M_MT  # rows producible before a full twist: 227


def _init_genrand(seed: int) -> list[int]:
    """CPython's ``init_genrand`` state words."""
    init = [seed]
    for i in range(1, N_MT):
        prev = init[i - 1]
        init.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return init


if HAVE_NUMPY:
    _MATRIX_A = np.uint32(0x9908B0DF)
    _UPPER = np.uint32(0x80000000)
    _LOWER = np.uint32(0x7FFFFFFF)
    _ONE = np.uint32(1)
    # Every init_by_array walk starts from init_genrand(19650218); its
    # step 0 reads only rows 0 and 1, both still those constants.
    _INIT_WORDS = _init_genrand(19650218)
    _INIT = [np.uint32(word) for word in _INIT_WORDS]
    _STEP0 = np.uint32(_INIT_WORDS[1] ^ (1664525 * (
        _INIT_WORDS[0] ^ (_INIT_WORDS[0] >> 30)) & 0xFFFFFFFF))


def key_words(materials: "np.ndarray | bytes") -> "np.ndarray":
    """``(8, B)`` init_by_array key words for 32-byte seed materials.

    ``materials`` is the concatenated seed bytes (B * 32).  CPython
    seeds from ``int.from_bytes(material, "big")`` and splits that
    integer into little-endian 32-bit digits, which is exactly the
    big-endian word view reversed.
    """
    words = np.frombuffer(bytes(materials), dtype=">u4").reshape(-1, 8)
    return np.ascontiguousarray(words[:, ::-1].T.astype(np.uint32))


def seed_states(key: "np.ndarray") -> "np.ndarray":
    """Run init_by_array for B lockstep streams: key ``(key_len, B)``.

    Returns the seeded state matrix ``(624, B)`` with the implicit
    generator position at 624 (a twist precedes the first output),
    matching ``random.Random(seed_int)`` for every stream whose key
    really is ``key_len`` words (see :attr:`LockstepMT.irregular`).

    The matrix is never filled with the ``init_genrand`` column.  The
    first loop's steps 0..622 write rows 1..623 in order, and step *s*
    reads row ``s + 1`` before any step has written it, so that read is
    the same init constant for every stream: a scalar XOR instead of a
    row load.  Step 0 also reads row 0 before the wrap, so it is a
    single add of a constant.  Only from the wrap (``mt[0] = mt[623]``
    after step 622) on do the steps read stored rows, and by then every
    row has been written.
    """
    key_len, batch = key.shape
    init = _INIT
    rshift = np.right_shift
    xor = np.bitwise_xor
    mul = np.multiply
    add = np.add
    sub = np.subtract
    thirty = np.uint32(30)
    mult_key = np.uint32(1664525)
    mult_mix = np.uint32(1566083941)
    mt = np.empty((N_MT, batch), dtype=np.uint32)
    # key[j] + j is loop-invariant per key row; hoist the add.
    keyj = [key[j] + np.uint32(j) for j in range(key_len)]
    scratch = np.empty(batch, dtype=np.uint32)
    # Step 0 reads only init constants.
    add(keyj[0], _STEP0, out=mt[1])
    # Steps 1..622: row i is still init[i], so XOR the scalar.
    j = 1 % key_len
    for i in range(2, N_MT):
        prev = mt[i - 1]
        rshift(prev, thirty, out=scratch)
        xor(prev, scratch, out=scratch)
        mul(scratch, mult_key, out=scratch)
        xor(scratch, init[i], out=scratch)
        add(scratch, keyj[j], out=mt[i])
        j += 1
        if j >= key_len:
            j = 0
    mt[0] = mt[N_MT - 1]
    i = 1
    # The rest of the first loop (one step for keys up to 624 words)
    # reads the stored rows.
    for _step in range(max(N_MT, key_len) - (N_MT - 1)):
        prev = mt[i - 1]
        rshift(prev, thirty, out=scratch)
        xor(prev, scratch, out=scratch)
        mul(scratch, mult_key, out=scratch)
        xor(mt[i], scratch, out=scratch)
        add(scratch, keyj[j], out=mt[i])
        i += 1
        j += 1
        if i >= N_MT:
            mt[0] = mt[N_MT - 1]
            i = 1
        if j >= key_len:
            j = 0
    for _step in range(N_MT - 1):
        prev = mt[i - 1]
        rshift(prev, thirty, out=scratch)
        xor(prev, scratch, out=scratch)
        mul(scratch, mult_mix, out=scratch)
        xor(mt[i], scratch, out=scratch)
        sub(scratch, np.uint32(i), out=mt[i])
        i += 1
        if i >= N_MT:
            mt[0] = mt[N_MT - 1]
            i = 1
    mt[0] = _UPPER
    return mt


def _temper(y: "np.ndarray") -> "np.ndarray":
    y = y ^ (y >> np.uint32(11))
    y = y ^ ((y << np.uint32(7)) & np.uint32(0x9D2C5680))
    y = y ^ ((y << np.uint32(15)) & np.uint32(0xEFC60000))
    return y ^ (y >> np.uint32(18))


def _twist_rows(mt: "np.ndarray", lo: int, hi: int) -> "np.ndarray":
    """Tempered outputs ``lo..hi`` of the first block (hi <= 227).

    Rows below :data:`_PARTIAL_LIMIT` only read the *seeded* state, so
    they can be produced without committing the full twist.
    """
    y = (mt[lo:hi] & _UPPER) | (mt[lo + 1:hi + 1] & _LOWER)
    out = mt[M_MT + lo:M_MT + hi] ^ (y >> _ONE) ^ ((y & _ONE) * _MATRIX_A)
    return _temper(out)


def _full_twist(mt: "np.ndarray") -> None:
    """Advance the state matrix by one whole twist, in place.

    The reference loop is self-referential past index 454 (it reads
    values the same pass already wrote), so the vector form runs in
    four dependency-ordered chunks.
    """
    def turn(lo: int, hi: int, src_lo: int) -> None:
        y = (mt[lo:hi] & _UPPER) | (mt[lo + 1:hi + 1] & _LOWER)
        mt[lo:hi] = mt[src_lo:src_lo + hi - lo] ^ (y >> _ONE) \
            ^ ((y & _ONE) * _MATRIX_A)

    turn(0, 227, M_MT)          # reads only pre-twist state
    turn(227, 454, 0)           # reads chunk-1 results
    turn(454, 623, 227)         # reads chunk-2 results
    y = (mt[N_MT - 1] & _UPPER) | (mt[0] & _LOWER)
    mt[N_MT - 1] = mt[M_MT - 1] ^ (y >> _ONE) ^ ((y & _ONE) * _MATRIX_A)


class WordBudgetExceeded(Exception):
    """A stream consumed more than one twist block of outputs.

    The scan kernel sizes its blocks generously (no legitimate entity
    draw sequence approaches 624 words), so this only fires for the
    astronomically improbable rejection-loop runaway — which then takes
    the scalar fallback rather than an inexact vector result.
    """


class LockstepMT:
    """B bit-identical MT19937 streams with lazily grown output rows."""

    __slots__ = ("batch", "irregular", "_mt", "_out", "_rows", "_twisted")

    def __init__(self, materials: bytes | bytearray):
        """``materials`` holds B concatenated 32-byte seed digests."""
        key = key_words(materials)
        self.batch = key.shape[1]
        # CPython's key drops leading zero 32-bit digits: a material
        # whose top word is zero seeds with a shorter key than the
        # lockstep layout.  Flag those streams for the scalar path.
        self.irregular = np.flatnonzero(key[7] == 0)
        self._mt = seed_states(key)
        self._out: "np.ndarray | None" = None
        self._rows = 0
        self._twisted = False

    def words(self, rows: int) -> "np.ndarray":
        """Tempered output matrix with at least ``rows`` rows.

        Row *k*, column *s* is stream *s*'s ``getrandbits(32)`` number
        *k*.  Grows in place; previously returned rows keep their
        values.  Raises :class:`WordBudgetExceeded` past one block.
        """
        if rows <= self._rows:
            return self._out
        if rows > N_MT:
            raise WordBudgetExceeded(rows)
        if rows <= _PARTIAL_LIMIT and not self._twisted:
            grown = np.empty((rows, self.batch), dtype=np.uint32)
            if self._rows:
                grown[:self._rows] = self._out[:self._rows]
            grown[self._rows:] = _twist_rows(self._mt, self._rows, rows)
            self._out = grown
            self._rows = rows
            return self._out
        # Commit the full twist once; every row of the block is then
        # one temper away.  (The partial rows already handed out are a
        # prefix of the same block, so values never change.)
        if not self._twisted:
            _full_twist(self._mt)
            self._twisted = True
            self._out = _temper(self._mt)
            self._rows = N_MT
        return self._out
