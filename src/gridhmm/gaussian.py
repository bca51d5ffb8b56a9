"""Scalar Gaussian utilities and reproducible random streams.

Everything downstream of this module draws randomness through
:class:`RngStream`, which addresses an independent stream by
``(seed, stream_index)``.  Identical addresses give bitwise-identical
draws on every platform, and distinct stream indices give statistically
independent streams without any shared mutable state.  That property is
what lets the Monte Carlo harness hand one stream to each trial and stay
deterministic under any execution order.  One engine makes every draw,
without ``numpy.random``: :func:`_stream_words` reproduces numpy's
seeding and raw PCG64 words from any offset in exact uint64 array
arithmetic, and :func:`_uniforms` and the ziggurat of :func:`_normals`
make ``Generator.random`` and ``standard_normal`` of them, bit for bit.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "probability",
    "q_function",
    "RngStream",
    "sample_gaussian",
    "sample_categorical",
]

_SQRT2 = math.sqrt(2.0)

# Tolerance for user-supplied probability vectors summing to 1.
SUM_TOL = 1e-9


def probability(value: float) -> float:
    """Return ``value`` as a float after checking it lies in [0, 1].

    NaN fails both bound checks and is rejected.
    """
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"probability out of range [0, 1]: {value!r}")
    return v


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution.

    Evaluated through the complementary error function rather than a
    series or rational approximation; the result is monotone decreasing
    in ``x`` and accurate to well below 1e-12 absolute over the argument
    ranges that arise here.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("q_function requires a non-NaN argument")
    return probability(0.5 * math.erfc(x / _SQRT2))


class RngStream:
    """One reproducible random stream addressed by ``(seed, stream_index)``.

    It is numpy's PCG64 stream of ``SeedSequence(seed, spawn_key=(stream_index,))``,
    so creating stream ``t`` never touches stream ``u``.  Its draws are
    made of the words of :func:`_stream_words`, the one engine of every
    draw, and equal those of numpy's ``Generator``, bit for bit and word
    for word.  ``_offset`` counts the words handed out.

    A stream is single-owner state: never advance the same stream from
    two threads.  Distinct streams may be advanced concurrently.
    """

    def __init__(self, seed: int, stream_index: int = 0) -> None:
        seed = _check_seed(seed)
        stream_index = int(stream_index)
        if stream_index < 0:
            raise ValueError(f"stream_index must be non-negative, got {stream_index}")
        if stream_index >= 2**64:
            raise ValueError(f"stream_index must fit in an unsigned 64-bit integer, got {stream_index}")
        self.seed = seed
        self.stream_index = stream_index
        self._offset = 0
        self._skip(0)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"

    def _skip(self, n: int) -> None:
        """Move the stream past its next ``n`` words without making them."""
        self._offset += n
        self._held = np.empty(0, dtype=np.uint64)
        t = self.stream_index
        self._pieces = _stream_words(self.seed, t, t + 1, _PERIOD, self._offset)

    def _peek(self, n: int) -> np.ndarray:
        """The stream's next ``n`` words, left in the stream."""
        held, have = [self._held], len(self._held)
        while have < n:
            held.append(next(self._pieces)[:, 0])
            have += len(held[-1])
        if len(held) > 1:
            self._held = np.concatenate(held)
        return self._held[:n]

    def _take(self, n: int) -> np.ndarray:
        """The stream's next ``n`` words, handed out."""
        words = self._peek(n)
        rest = self._held[n:]
        self._held = rest.copy() if n > _PIECE else rest  # a view would keep a large draw's words
        self._offset += n
        return words

    def random(self, size=None):
        """Doubles in [0, 1) as ``Generator.random``: one word each, its top 53 bits."""
        u = _uniforms(self._take(_count(size)))
        return float(u[0]) if size is None else u.reshape(size)

    def standard_normal(self, size=None):
        """Standard normals as ``Generator.standard_normal``: numpy's ziggurat on the words.

        Each pass keeps the normals :func:`_normals` finds in about a piece
        of the coming words, and looks further when it finds none.
        """
        count = _count(size)
        out, slack = [np.empty(0)], 8
        while count:
            n = min(count, _PIECE)
            normals, ends = _normals(self._peek(n + n // 16 + slack))
            normals = normals[:count]
            if normals.size:
                self._take(int(ends[normals.size - 1]))
            else:
                slack *= 2
            out.append(normals)
            count -= normals.size
        z = np.concatenate(out)
        return float(z[0]) if size is None else z.reshape(size)


def _count(size) -> int:
    """Draws in an array of shape ``size``; one for None."""
    return 1 if size is None else math.prod(np.atleast_1d(size).tolist())


def _check_seed(seed) -> int:
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hashmix(value, const: int):
    """SeedSequence's ``hashmix`` of an int, and its next multiplier state."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - _MIX_R * y) & _M32
    return r ^ r >> 16


def _hash_words(words, consts) -> np.ndarray:
    """Row i: the 32-bit ``words`` hashed with multiplier state ``consts[i]``, as by ``_hashmix``."""
    value = words ^ np.array(consts[:-1], dtype=np.uint32)[:, None]
    value *= np.array(consts[1:], dtype=np.uint32)[:, None]
    return value ^ value >> 16


def _consts(const: int, mult: int, count: int) -> list[int]:
    """``const`` and the ``count`` multiplier states after it."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _spawn_states(seed: int, first: int, last: int) -> tuple[np.ndarray, ...]:
    """PCG64 seed words ``(s_hi, s_lo, i_hi, i_lo)`` of ``RngStream(seed, t)``, t in ``first..last-1``.

    Each is a uint64 array over t < 2**64: the 128-bit state seed ``s``
    and stream seed ``i`` that ``PCG64`` reads from
    ``SeedSequence(seed, spawn_key=(t,)).generate_state(4, uint64)``.
    That hashes the seed's two 32-bit words, padded with zeros to its
    pool of four, into the pool, mixes the pool words with each other,
    then mixes each word of t into every pool word: one word for t <
    2**32, two above.  All of that but the last step is the same for
    every t and runs once, on ints.  The last step and
    ``generate_state`` run on uint32 arrays, one row per pool or output
    word and one column per t.
    """
    const = _INIT_A
    pool = []
    for word in (seed & _M32, seed >> 32, 0, 0):
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    t = np.arange(first, last, dtype=np.uint64)
    consts = _consts(const, _MULT_A, 8)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], _hash_words(t.astype(np.uint32), consts[:5]))
    if last > 2**32:
        high = (t >> 32).astype(np.uint32)
        pool = np.where(high > 0, _mix(pool, _hash_words(high, consts[4:])), pool)
    words = _hash_words(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return tuple(words[0::2] | words[1::2] << 32)


# Elements (steps x streams) per piece of the words.  A piece's uint64
# temporaries take about 90 B an element, 0.37 MB in all, which keeps the
# Monte Carlo draws below the peak of the batch they feed.
_PIECE = 2**12

# A PCG64 stream repeats after 2**128 words: all the words it has.
_PERIOD = 2**128


def _limbs(values) -> np.ndarray:
    """uint64 limbs (4, len(values)) of ints mod 2**128: rows hi, lo, lo & 0xFFFFFFFF, lo >> 32."""
    return np.array(
        [[v >> 64 & _M64 for v in values], [v & _M64 for v in values],
         [v & _M32 for v in values], [v >> 32 & _M32 for v in values]],
        dtype=np.uint64,
    )


def _powers(n: int) -> tuple[int, int]:
    """``MULT**n`` and ``G_n = MULT**0 + ... + MULT**(n-1)``, both mod 2**128.

    ``MULT**n`` modulo ``(MULT - 1) 2**128`` gives both, since
    ``MULT**n - 1 = (MULT - 1) G_n``.
    """
    power = pow(_PCG_MULT, n, (_PCG_MULT - 1) << 128)
    return power & _M128, (power - 1) // (_PCG_MULT - 1)


@functools.lru_cache(maxsize=2)  # a stream's pieces and a Monte Carlo batch's
def _sums(length: int) -> np.ndarray:
    """Limbs (4, length + 2, 1) of ``G_m`` for m in 0..length+1.

    Filled by doubling: with ``G_0 .. G_h`` known, ``G_(h+m) = G_h +
    MULT**h G_m`` gives the next h entries in one array step.
    """
    hi, lo = np.zeros((2, length + 2), dtype=np.uint64)
    lo[1] = 1
    h = 1
    while h <= length:
        n = min(h, length + 1 - h)
        power = _limbs([_powers(h)[0]])[:, 0]
        new = slice(h + 1, h + n + 1)
        hi[new], lo[new] = _mul_add(power, hi[1 : n + 1], lo[1 : n + 1], hi[h], lo[h])
        h += n
    table = np.array([hi, lo, lo & _M32, lo >> 32])[:, :, None]
    table.flags.writeable = False  # cached: every caller shares it
    return table


def _mul_add(a, hi, lo, b_hi, b_lo):
    """``a * (hi, lo) + (b_hi, b_lo)`` mod 2**128, as uint64 words ``(hi, lo)``; ``a`` in limbs.

    The high word of the 64-bit product ``a_lo * lo`` is summed from
    32-bit partial products, none of which overflows.
    """
    a_hi, a_lo, a0, a1 = a
    lo0, lo1 = lo & _M32, lo >> 32
    mid = lo0 * a0
    mid >>= 32
    mid += lo1 * a0
    cross = lo0 * a1
    cross += mid & _M32
    cross >>= 32
    mid >>= 32
    out_hi = lo1 * a1
    out_hi += mid
    out_hi += cross
    out_hi += hi * a_lo
    out_hi += lo * a_hi
    out_hi += b_hi
    out_lo = lo * a_lo
    out_lo += b_lo
    out_hi += out_lo < b_lo
    return out_hi, out_lo


def _stream_words(seed: int, first: int, last: int, count: int, start: int = 0):
    """Yield words ``start .. start + count - 1`` of ``RngStream(seed, t)``, t in ``first..last-1``.

    The words are the raw 64-bit outputs of ``PCG64.random_raw``, in
    pieces: uint64 arrays (rows, last - first) of about ``_PIECE``
    elements, column i stream ``first + i``.  PCG64 seeds ``inc = 2 i +
    1`` and ``state = MULT x + inc`` with ``x = s + inc``; each word steps
    ``state <- MULT state + inc`` mod 2**128 and is XSL-RR of the new
    state (O'Neill 2014, HMC-CS-2014-0905).  So word j comes from x
    advanced m = j + 2 steps, ``MULT**m x + G_m inc``, which is ``x + G_m
    v`` with ``v = (MULT - 1) x + inc``, since ``MULT**m = 1 + (MULT - 1)
    G_m`` (Brown 1994, "Random number generation with arbitrary
    strides").  The kernel first advances x by ``start`` steps; the first
    piece of ``rows`` words takes that product with the table of
    :func:`_sums`, and each later piece is the piece before advanced by
    ``rows`` steps, ``MULT**rows state + G_rows inc``.  All arithmetic is
    exact uint64, so a word costs the same at any offset.
    """
    s_hi, s_lo, i_hi, i_lo = _spawn_states(seed, first, last)
    rows = max(1, min(count, _PIECE // (last - first)))
    power, total = _powers(start)
    # x advanced start steps: MULT**start (s + inc) + G_start inc = MULT**start s + G_(start+1) inc.
    jump, lead, mult_less_one, advance, step = _limbs([power, power + total, _PCG_MULT - 1, *_powers(rows)]).T
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    x = _mul_add(jump, s_hi, s_lo, *_mul_add(lead, *inc, 0, 0))
    v = _mul_add(mult_less_one, *x, *inc)
    state = _mul_add(_sums(rows)[:, 2 : rows + 2], *v, *x)
    step = _mul_add(step, *inc, 0, 0)
    for row in range(0, count, rows):
        if row:
            n = min(rows, count - row)
            state = _mul_add(advance, state[0][:n], state[1][:n], *step)
        hi, lo = state
        bits = hi ^ lo  # XSL-RR: the words' xor, rotated right by the state's top 6 bits
        turn = hi >> 58
        yield bits >> turn | bits << (64 - turn)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles of ``Generator.random``: the top 53 bits of each word, times 2**-53."""
    return (words >> 11) * 2.0**-53


def _stream_draws(seed: int, first: int, last: int, count: int) -> np.ndarray:
    """Uniforms (count, last - first): column i ``RngStream(seed, first + i).random(count)``."""
    u = np.empty((count, last - first))
    row = 0
    for words in _stream_words(seed, first, last, count):
        u[row : row + len(words)] = _uniforms(words)
        row += len(words)
    return u


# numpy's ziggurat tables for the standard normal: ki_double, wi_double and
# fi_double (numpy/random/src/distributions/ziggurat_constants.h, numpy
# 2.4.6, BSD-3-Clause), 256 little-endian uint64, float64 and float64 in that
# order.  Copied from those local symbols of numpy's libnpyrandom.a.
_ZIGGURAT = bytes.fromhex(
    "6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00eaeec17ef6510e007ef7d3e955b20e00"
    "b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00"
    "9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00"
    "f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00"
    "ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f0031ee7a97a2c60f00a49628a97ac80f00"
    "85de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00"
    "50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00ec998ec089d60f0032e8c8a96ed70f00"
    "e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00"
    "7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f004e518d70eede0f002eb4a60174df0f00"
    "40ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00"
    "911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f007fad9ee910e40f003477d44667e40f00"
    "5c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00"
    "78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00399e3e827be70f00a27070e3b6e70f00"
    "4342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00"
    "1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00d5b69426dfe90f007ce6ab7309ea0f00"
    "a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00"
    "13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f001420e65f96eb0f007c9dcff4b4eb0f00"
    "d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00"
    "f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00b3c88874e9ec0f00"
    "b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00"
    "e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00b46a74c8b3ed0f00526641dfc2ed0f00"
    "526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00"
    "e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00"
    "417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00"
    "b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00ea29a85198ee0f005c48130e9cee0f00"
    "f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00"
    "3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00241d4878a6ee0f00839ea28aa4ee0f00"
    "dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00"
    "7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f007e009e5264ee0f00"
    "8828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00"
    "5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f007e0422e4dbed0f00d339ce0ecbed0f00"
    "f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00"
    "22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00"
    "c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00"
    "92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f004b2d0bb013eb0f00e9021a59e2ea0f00"
    "572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00"
    "28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f0040a990f604e80f00c0338248abe70f00"
    "a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00"
    "58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f005755990300e20f00148378823ce10f00"
    "b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00"
    "75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00acc7b4a7a1d10f009e1f7604e2ce0f00"
    "b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00"
    "9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f0079d915783b49cf3cc6f6fde30b8d8b3c"
    "b45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983cbcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3c"
    "c3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13cf51a7a8fa227a23c80d863382eb5a23c"
    "f59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c96ce07a78095a53c"
    "ea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c772ab310ad98a73c43f546ad45f8a73c"
    "770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c46c5388ec9b9a93c2ca7a4dccc0eaa3c"
    "59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c3a9f528e36a4ab3c3282bf2ad6f1ab3c"
    "f34e59f9703eac3c613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c"
    "5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c2662f084e70daf3c88f6d854f651af3c"
    "aed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03cfca5169eea4eb03c10a0725b566fb03c"
    "0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03cee159532200eb13cbe0f3107472db13c"
    "41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c"
    "9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c7fd31d662a79b23c1bd719c78196b23c"
    "da2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33ca15e26704444b33c"
    "d552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33ce01d569886d2b33c835a72debeeeb33c"
    "749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c36c3669edf7ab43c2f8f4832ba96b43c"
    "5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c5a8b0af24d21b53c4f666ad5e63cb53c"
    "c8b21b4e7758b53c785f550e0074b53c14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c"
    "385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c7296c957e26ab63c3731b1834286b63c"
    "b1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63ceb688bf7270fb73cc61469518e2ab73c"
    "dcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c09148b3ccab3b73cfb22dbf34ccfb73c"
    "e7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c"
    "2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c8fb573293a00b93c478328dc381cb93c"
    "fc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c2cd9d58c79c5b93c"
    "11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c88bb0b9e7f54ba3ca4a94a725a71ba3c"
    "3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c1aa1c34f0b03bb3c5b989af07c20bb3c"
    "000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c6e2585db6bb5bb3ca2c02e6b93d3bb3c"
    "83ae819bdcf1bb3ca016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3c"
    "aba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c20ef3710db28bd3c47c63315de48bd3c"
    "23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c372e5295d1ebbd3c1cd249fb060dbe3c"
    "f646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c086ff7c081b6be3c3aa7107623d9be3c"
    "a9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c"
    "85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03cab02a983a934c03cc7f53e4eda47c03c"
    "7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c48d4eed13dbfc03c"
    "303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c355dbb9b2129c13c6d09c4691d3fc13c"
    "3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c8e2f7f77adb1c13c94a671a99cc9c13c"
    "39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c249caca44547c23ce05876c7bc61c23c"
    "2e59a8fab27cc23c780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33c"
    "a3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33cfa88ae7075acc33ca60417b327cfc33c"
    "75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43cbc439c75628dc43c275a6b9d73b7c43c"
    "0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53cd98d718bc0a5c53cfed03a248adcc53c"
    "4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c32e2098d6bdbc63c347a5ff02827c73c730609569579c73c"
    "8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93cab574001eecbc93c5a779478dc8fca3c"
    "b1fd78381f98cb3c33ad0982b43bcd3c000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f"
    "95de04a76fd3ed3ff2bc57069270ed3fdc19a1784914ed3feb2da7a833bdec3f7f78a9ce5e6aec3feabaeed91c1bec3f"
    "82dce14eebceeb3f52f58f3a6585eb3f10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3fe1c950d58b74ea3f"
    "0faff5fdaa34ea3fd81f65ee3bf6e93f8106248d22b9e93fc17a6157467de93f477a1bc29142e93f4f7131bdf108e93f"
    "a80ae64f55d0e83f02dfba48ad98e83facbc37fceb61e83f6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73f"
    "d5b0a03c038fe73f56d870071f5ce73f126d3ff4e529e73fee7aeaba50f8e63f895a639e58c7e63f2a3b515ef796e63f"
    "23e3922a2767e63f180c5598e237e63f652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f"
    "469e8df01353e53fd56c655ab526e53f67b620e8c4fae43fc04e494f3fcfe43f7852dc7221a4e43f1250df5f6879e43f"
    "7936494a114fe43fe35f358a1925e43f825b58997efbe33fa331af103ed2e33f0ecd62a655a9e33fd500da2bc380e33f"
    "e950f58b8458e33f353a70c99730e33fef3864fdfa08e33fee3bea55ace1e23f4a95d714aabae23f15cd938ef293e23f"
    "ed040529846de23f84db905a5d47e23ff2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f"
    "503c9b709b8ce13fda3986120568e13f9ca95e10ad43e13f381f3148921fe13f135932a2b3fbe03fa042411010d8e03f"
    "aed9708da6b4e03f815d991d7691e03f363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03fc4cab885dc06e03f"
    "a1bd7b8c77c9df3fca00a9a79d85df3ff37a2fcb2942df3f958f7e711affde3f541fbd206ebcde3fc5c34e6a237ade3f"
    "859b5fea3838de3f093a7647adf6dd3fb1560b327fb5dd3f33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f"
    "48a8c07355b4dc3fc7d700bbe874dc3fb82c1d6fd235dc3f176a617c11f7db3f916d71d6a4b8db3f1b1307788b7adb3f"
    "ca31b362c43cdb3f5285a19e4effda3f9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3f"
    "df931e5ea5d0d93fc6c018840495d93f939fe0dbae59d93f17cb339ba31ed93f15f1b9fce1e3d83f8891de3f69a9d83f"
    "b65aaca8386fd83fd90daa7f4f35d83f11d9b811adfbd73fb014f4af50c2d73feb5292af3989d73fedb1c7696750d73f"
    "4c61a93bd917d73faa4c12868edfd63f21de88ad86a7d63fe2cb251ac16fd63f15e57b373d38d63fc8d28074fa00d63f"
    "44c27643f8c9d53fbeeed6193693d53f00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43f"
    "d46aad9f1985d43ffe24c3efcc4fd43f197a35d1bc1ad43fdbd28ed0e8e5d33fae43f17c50b1d33f79130868f37cd33f"
    "9ed1f925d148d33f2ff65a4de914d33f660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f89de171f8a47d23f"
    "9eccf779c014d23f168118f62ee2d13f50f0c239d5afd13fe85454edb27dd13f67ee34bbc74bd13f2324cf4f131ad13f"
    "c409875995e8d03fda42b2884db7d03f3643908f3b86d03fd9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f"
    "3532b88c1088cf3fd298e96cfe27cf3f449cc9a454c8ce3fdd3c28b21269ce3f84714516380ace3f0a90c755c4abcd3f"
    "4f51b2f8b64dcd3fcc6f5e8a0ff0cc3f53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f"
    "3ad1cc52b421cb3f071857a267c6ca3f7e26190b7e6bca3f3d7e2d32f710ca3f5afed2bfd2b6c93f277c6a5f105dc93f"
    "69fa74bfaf03c93f5b819291b0aac83f389a818a1252c83f75711f62d5f9c73f23a368d3f8a1c73fa6b57a9c7c4ac73f"
    "1647967e60f3c63f5cf2213ea49cc63f9cf1ada24746c63ff983f8764af0c53f6c1df388ac9ac53f3568c8a96d45c53f"
    "c11fe3ad8df0c43f2dcef56c0c9cc43fd57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f"
    "652a7c840efbc23f1a077a13c3a8c23fb75e83a2d556c23f343c18254605c23f427d759214b4c13f632da8e54063c13f"
    "b96ea21dcb12c13fba09523db3c2c03f85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f1c0e5229ff0bbf3f"
    "4ba59af27b6fbe3f8fe87661b5d3bd3fe591bdb9ab38bd3f0a743b495f9ebc3f15100b68d004bc3f33e2f278ff6bbb3f"
    "33f6cae9ecd3ba3f8662ea33993cba3f195b9ddc04a6b93faba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f"
    "7611aa5a3953b73f4c4a69736bc0b63f184d8524612eb63fa46674571b9db53fae2bfa069b0cb53f13221b40e17cb43f"
    "869a2623efedb33f703ed9e4c55fb33f11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f"
    "2596152ceda4b03f97e4309e971bb03f356e6c2b2c26af3f8151b247d516ae3f62f1adfe2e09ad3f2c2a280f3efdab3f"
    "705f389007f3aa3f635529f990eaa93fabb5682ae0e3a83f1e27af77fbdea73f64d098b3e9dba63fd4adf23cb2daa53f"
    "5d27110e5ddba43fcbee98cef2dda33f97f43de87ce2a23fbc6a1f9f05e9a13f1180962e98f1a03fc4a518d781f89f3f"
    "758c82db1a129e3f1a09cd8319309c3ff8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f"
    "135eab8d380d933f123060340349913f49dd724f2a158f3fac8f4f278da48b3f78a48d0d0441883fe0cf1a4296eb843f"
    "922f952992a5813f3768ecf860e17c3f5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f0ff7b9b605a6543f"
)
# Indexed by the low 9 bits of a word, the layer and then the sign, so that
# one gather gives ``±wi`` and another ``ki``.
_KI = np.tile(np.frombuffer(_ZIGGURAT, dtype="<u8", count=256), 2)
_WI = np.frombuffer(_ZIGGURAT, dtype="<f8", count=256, offset=2048)
_WI = np.concatenate([_WI, -_WI])
_FI = np.frombuffer(_ZIGGURAT, dtype="<f8", count=256, offset=4096).tolist()
# numpy's ziggurat_nor_r and ziggurat_nor_inv_r: where the tail starts, and its inverse.
_R = 3.6541528853610087963519472518
_INV_R = 0.27366123732975827203338247596


def _normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard normals of the raw PCG64 ``words`` as ``Generator.standard_normal`` makes them, and where each one's words end.

    numpy's ``random_standard_normal`` is a ziggurat (Marsaglia & Tsang
    2000, "The Ziggurat Method for Generating Random Variables").  Each
    attempt starts from one word r: layer ``i = r & 0xFF``, sign bit 8 and
    ``rabs = r >> 9``, 52 bits; it returns ``x = ±rabs wi[i]`` when ``rabs
    < ki[i]``, for about 98 % of words.  Otherwise a wedge (i > 0) takes
    the next word as a uniform u and returns x when ``(fi[i-1] - fi[i]) u
    + fi[i] < exp(-x²/2)``, while the tail (i = 0) takes pairs of words
    until it accepts one; after a rejected wedge the next word starts a
    new attempt.  The first test runs on all words at once.  One loop,
    in order, over the words that fail it finds those that start an
    attempt and decides them with the same libm ``exp`` and ``log1p`` as
    numpy's C code.  Normal i's words end before word ``ends[i]``; the
    words after the last normal's, an attempt cut off by the end of
    ``words`` or rejected after the last normal, are left for the words
    that follow.
    """
    cell = (words & 0x1FF).astype(np.intp)
    rabs = words >> 9 & (2**52 - 1)
    x = rabs * _WI[cell]
    keep = rabs < _KI[cell]
    slow = np.flatnonzero(~keep)
    n = len(words)
    uniforms = _uniforms(words[np.minimum(slow + 1, n - 1)]).tolist()
    used_up, ends, tails = [], {}, {}
    cut = n  # the first word of an attempt that the words end inside
    after = 0  # the first word after the attempts decided so far
    for p, i, xp, u in zip(slow.tolist(), (cell[slow] & 0xFF).tolist(), x[slow].tolist(), uniforms):
        if p < after:
            continue  # a uniform of the attempt before
        if i:
            if p + 1 == n:
                cut = p
                break
            after = p + 2
            used_up.append(p + 1)
            if (_FI[i - 1] - _FI[i]) * u + _FI[i] < math.exp(-0.5 * xp * xp):
                ends[p] = after
            continue
        q = p + 1
        while q + 1 < n:
            xx = -_INV_R * math.log1p(-_uniforms(words[q]))
            yy = -math.log1p(-_uniforms(words[q + 1]))
            q += 2
            if yy + yy > xx * xx:
                break
        else:
            cut = p
            break
        after = ends[p] = q
        used_up.extend(range(p + 1, q))
        tails[p] = -(_R + xx) if int(rabs[p]) >> 8 & 1 else _R + xx
    keep[used_up] = False
    keep[list(ends)] = True
    keep[cut:] = False
    x[list(tails)] = list(tails.values())
    stop = np.arange(1, n + 1)
    stop[list(ends)] = list(ends.values())
    return x[keep], stop[keep]


def sample_gaussian(mean, sigma: float, rng: RngStream, size=None):
    """Draw from N(mean, sigma^2) on the given stream.

    ``mean`` may be scalar or an array; an array yields one draw per
    element in order.  Returns a float for scalar input, an ndarray
    otherwise.
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mean = np.asarray(mean, dtype=float)
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    shape = mean.shape if size is None else size
    out = np.broadcast_to(mean, shape) + sigma * rng.standard_normal(shape)
    return float(out) if size is None and mean.ndim == 0 else out


def _vector_violation(vec: np.ndarray, name: str) -> str | None:
    """First probability-vector violation in ``vec``, or None.

    ``SUM_TOL`` loosens the sum and the upper bound only: a negative
    entry, however small, has a NaN logarithm and is always rejected.
    """
    if not np.all(np.isfinite(vec)):
        return f"{name} has a non-finite entry"
    low = np.flatnonzero(vec < 0.0)
    if low.size:
        i = int(low[0])
        return f"{name}[{i}] = {float(vec[i]):.12g} is negative"
    high = np.flatnonzero(vec > 1.0 + SUM_TOL)
    if high.size:
        i = int(high[0])
        return f"{name}[{i}] = {float(vec[i]):.12g} exceeds 1"
    total = float(vec.sum())
    if abs(total - 1.0) > SUM_TOL:
        return f"{name} sums to {total:.12g}, off by {abs(total - 1.0):.3e} (> {SUM_TOL})"
    return None


def _matrix_violation(mat: np.ndarray, name: str, sum_axis: int) -> str | None:
    """First stochasticity violation in ``mat``, or None.

    ``sum_axis=1`` checks row sums (transition matrices), ``sum_axis=0``
    column sums (emission matrices).  Entry bounds are those of
    :func:`_vector_violation`.
    """
    if not np.all(np.isfinite(mat)):
        return f"{name} has a non-finite entry"
    bad = np.argwhere((mat < 0.0) | (mat > 1.0 + SUM_TOL))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        return f"{name}[{i}, {j}] = {float(mat[i, j]):.12g} is outside [0, 1]"
    sums = mat.sum(axis=sum_axis)
    off = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL)
    if off.size:
        i = int(off[0])
        kind = "row" if sum_axis == 1 else "column"
        return (
            f"{name} {kind} {i} sums to {float(sums[i]):.12g},"
            f" off by {abs(float(sums[i]) - 1.0):.3e} (> {SUM_TOL})"
        )
    return None


def _cumulative(w: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative weights of checked probability vectors along ``axis``.

    The last entry along ``axis`` is exactly 1.0, so u < 1 always lands
    in range.  The sums run in index order, as for a 1-D vector.
    """
    cum = np.cumsum(w, axis=axis)
    cum /= np.take(cum, [-1], axis=axis)
    return cum


def sample_categorical(weights, rng: RngStream, size=None):
    """Draw category indices with the given probabilities on the stream.

    Consumes exactly one uniform per draw, by inversion of the
    cumulative weight vector.  Zero-probability categories are never
    returned.  Returns an int for ``size=None``, an int64 ndarray
    otherwise.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    problem = _vector_violation(w, "weights")
    if problem is not None:
        raise ValueError(problem)
    u = rng.random(size)
    # Counts the cumulative weights <= u, which skips zero-width categories
    # even when u hits a boundary; exact, as the weights never decrease.
    idx = np.searchsorted(_cumulative(w), u, side="right")
    if size is None:
        return int(idx)
    return idx.astype(np.int64)
