"""The numpy behaviours that mzsim's bit-identity claims rest on.

Several results are called bit-identical across routes: a restricted
expansion plan against the full one (a subset of the same terms, at other
positions of shorter arrays), a cached plan against a cold one, a grid
compile's rows against a compile at each phase, a compile of some rows
against those rows of the whole compile, and each row of a stack evolve
against a one-matrix call.  numpy documents some of
the behaviours below and merely exhibits others; each test states which
guarantee it checks and names the code that relies on it, so a numpy that
breaks one fails here rather than deep inside a scan.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import BeamSplitterCoeffs, Circuit, CircuitElement
from mzsim.circuit import _compile_grid

SEED = 20260823


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_integer_matmul_is_exact():
    # optics._build_plan keys a row's terms as compositions (uint8) @ place
    # (int64 place values up to 2^63) and adds the keys of several rows
    comps = np.array([[3, 0, 0], [1, 1, 1], [0, 0, 3]], dtype=np.uint8)
    place = np.array([[4 ** 30, 0], [4 ** 29, 4], [0, 1]], dtype=np.int64)
    keys = comps @ place
    assert keys.dtype == np.int64
    assert keys.tolist() == [[sum(int(c) * int(p) for c, p in zip(row, col))
                              for col in place.T.tolist()]
                             for row in comps.tolist()]


def test_unique_inverse_is_a_flat_intp_index():
    # optics._merge_keys ranks key words with 1-D np.unique(return_inverse)
    rng = np.random.default_rng(SEED)
    words = rng.integers(-2 ** 62, 2 ** 62, 50)[rng.integers(0, 50, 200)]
    values, inverse = np.unique(words, return_inverse=True)
    assert inverse.shape == words.shape and inverse.dtype == np.intp
    assert np.array_equal(values[inverse], words)
    assert np.all(np.diff(values) > 0)


def test_unique_void_keys_sort_rows_lexicographically():
    # fock._union merges uint8 occupation rows on one void key per row
    rng = np.random.default_rng(SEED)
    rows = rng.integers(0, 4, (60, 5)).astype(np.uint8)
    keys = rows.view(np.dtype((np.void, 5))).ravel()
    unique, inverse = np.unique(keys, return_inverse=True)
    merged = unique.view(np.uint8).reshape(len(unique), 5)
    assert list(map(tuple, merged.tolist())) == sorted(
        set(map(tuple, rows.tolist())))
    assert np.array_equal(merged[inverse.ravel()], rows)


def test_tobytes_keys_depend_only_on_values_and_shape():
    # optics._PlanCache keys plans on the tobytes() of the occupations and
    # of bool masks, and measurement.partial_trace on the basis bytes:
    # equal arrays must give equal keys, however they are laid out
    rng = np.random.default_rng(SEED)
    occupations = rng.integers(0, 3, (6, 4)).astype(np.uint8)
    strided = np.asfortranarray(occupations)
    assert strided.tobytes() == occupations.tobytes()
    u = random_complex(rng, 4, 4)
    u[1, 2] = 0
    needed = np.abs(u) > 1e-13
    assert needed.tobytes() == (u != 0).tobytes()
    assert len(needed.tobytes()) == needed.size


def test_min_scalar_type_is_the_narrowest_unsigned_type():
    # optics._plan narrows a plan's scatter index to
    # np.min_scalar_type(2 * kets), and optics._build_plan its factor
    # positions (below R * M) and input kets likewise; each type must hold
    # every index below its bound
    for top, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                       (65535, np.uint16), (65536, np.uint32),
                       (2 ** 32, np.uint64)):
        assert np.min_scalar_type(top) == dtype
        assert np.iinfo(dtype).max >= top


def test_float64_view_interleaves_real_and_imaginary_parts():
    # optics._evolve_grid adds each term's real and imaginary part into
    # float64 entries 2q and 2q + 1 of a view of the complex output
    rng = np.random.default_rng(SEED)
    block = random_complex(rng, 3, 5)
    flat = block.view(float)
    assert flat.shape == (3, 10)
    assert np.array_equal(flat[:, ::2], block.real)
    assert np.array_equal(flat[:, 1::2], block.imag)
    flat.reshape(-1)[3] = 7.0
    assert block[0, 1].imag == 7.0


def test_take_returns_c_ordered_blocks_for_narrow_unsigned_indices():
    # optics._evolve_grid takes each factor row of a plan, a uint8 or uint16
    # index, from one raveled (R*M) block of rows, multiplies the
    # taken vectors in place and reads the result through a float64 view;
    # optics._restrict_plan keeps a plan's terms with compress along the
    # term axis
    rng = np.random.default_rng(SEED)
    for dtype, m in ((np.uint8, 6), (np.uint16, 30)):
        entries = random_complex(rng, 4, m, m).reshape(4, m * m)[2]
        positions = rng.integers(0, m * m, (3, 50)).astype(dtype)
        assert positions.dtype == np.min_scalar_type(m * m - 1)
        term = entries.take(positions[0])
        assert term.flags.c_contiguous and term.shape == (50,)
        assert np.array_equal(term, entries[positions[0].astype(np.intp)])
        term *= entries.take(positions[1])
        assert term.view(float).tolist() == (
            entries[positions[0].astype(np.intp)]
            * entries[positions[1].astype(np.intp)]).view(float).tolist()
        kept = rng.random(50) < 0.5
        compressed = positions.compress(kept, axis=1)
        assert compressed.flags.c_contiguous and compressed.dtype == dtype
        assert np.array_equal(compressed, positions[:, kept])


def test_bincount_sums_each_bin_in_index_order():
    # numpy documents no summation order; its loop adds the weights in
    # index order, and optics._evolve_grid's bit-identity between a
    # restricted and a full plan (the same terms of each read ket, in the
    # same order) rests on that.  1 + 1e16 - 1e16 is 0 in that order, 1 in
    # others
    rng = np.random.default_rng(SEED)
    weights = np.array([1.0, 1e16, -1e16])
    assert np.bincount([0, 0, 0], weights)[0] == 0.0
    bins = rng.integers(0, 7, 300)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, 300)
    want = [0.0] * 7
    for b, v in zip(bins.tolist(), values.tolist()):
        want[b] += v
    assert np.bincount(bins, values, 7).tolist() == want


def test_complex_exp_gives_each_entry_its_own_value():
    # circuit._compile_grid takes np.exp(1j * phases) over a grid; each row
    # equals compile at that row's phase only if an entry's value does not
    # depend on its position or on the array's length
    rng = np.random.default_rng(SEED)
    phases = rng.uniform(-10, 10, 37)
    stacked = np.exp(1j * phases)[..., None]
    for start, stop in ((0, 1), (3, 11), (20, 37)):
        alone = np.exp(1j * phases[start:stop])[..., None]
        assert stacked[start:stop].tobytes() == alone.tobytes()


def test_complex_multiply_gives_each_entry_its_own_value():
    # optics._evolve_grid multiplies each matrix's terms vector by its
    # gathered factor vectors, then by the terms' weights times their input
    # kets' amplitudes, and scales the summed kets into their output row,
    # each product out of place and of operands of one shape; a restricted
    # plan's amplitudes equal the full plan's only if each entry's product
    # depends neither on its position nor on the array's length, one entry
    # included.  numpy 2.4 rounds a one-entry product otherwise when it is
    # taken in place or broadcasts against more dimensions, and the code
    # takes neither form
    rng = np.random.default_rng(SEED)
    terms = 37
    a, b = random_complex(rng, terms), random_complex(rng, terms)
    weights, amps = rng.normal(size=terms), random_complex(rng, terms)
    scale = rng.uniform(1, 5, terms)
    whole = np.multiply(a * b * (weights * amps), scale,
                        out=np.empty(terms, dtype=complex))
    parts = [slice(i, i + 1) for i in range(terms)]
    for part in parts + [slice(3, 11), slice(20, 37), slice(0, 2)]:
        alone = np.ascontiguousarray(a[part]) * b[part]
        alone = alone * (weights[part] * amps[part])
        row = np.empty(len(alone), dtype=complex)
        np.multiply(alone, scale[part], out=row)
        assert whole[part].tobytes() == row.tobytes()


def test_column_updates_give_each_entry_its_own_value():
    # circuit._compile_grid updates each column, a (K x R) block of K phases
    # and R rows, by complex scalars (t a + r b, b t + r a) and by a (K x 1)
    # column of phase factors, each product out of place; a compile of some
    # rows equals those rows of the whole compile only if an entry's value
    # depends neither on the block's width nor on its position in it, one
    # entry (one row at one phase) included
    rng = np.random.default_rng(SEED)
    m = 37
    t, r = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))

    def update(col_a, col_b, factor):
        mixed = np.add(t * col_a, r * col_b, np.empty_like(col_a))
        np.add(col_b * t, r * col_a, col_b)
        return np.multiply(mixed, factor, np.empty_like(mixed)), col_b

    for k in (1, 5):
        a, b = random_complex(rng, k, m), random_complex(rng, k, m)
        factor = np.exp(1j * rng.uniform(-10, 10, k)).reshape(-1, 1)
        whole = update(a.copy(), b.copy(), factor)
        for rows in ([0, 1], [3, 11], list(range(20, 37)), [5, 6, 30],
                     *([j] for j in range(m))):
            part = update(np.ascontiguousarray(a[:, rows]),
                          np.ascontiguousarray(b[:, rows]), factor)
            for full, block in zip(whole, part):
                assert np.ascontiguousarray(full[:, rows]).tobytes() == (
                    block.tobytes())


def test_a_column_of_factors_gives_each_slice_the_scalars_bytes():
    # circuit._compile_grid compiles a family of slices: a splitter given
    # per-slice coefficients multiplies each (slices x R) column block by
    # a (slices x 1) column of them, on either side, where the compile of
    # one slice multiplies its (1 x R) block by the scalar t or r (a
    # Python complex, or a float such as the balanced t); and a phase
    # given as one value is a column repeating its factor, where one slice
    # broadcasts a (1 x 1) one.  Each slice of the product must be the
    # one-slice product's bytes, one slice and one row included
    rng = np.random.default_rng(SEED)
    for slices, rows in ((1, 1), (1, 3), (5, 1), (5, 2), (7, 12)):
        block = random_complex(rng, slices, rows)
        coeffs = random_complex(rng, slices)
        coeffs[::2] = rng.normal(size=len(coeffs[::2]))
        column = coeffs.reshape(-1, 1)
        factor = np.exp(1j * rng.uniform(-10, 10, (1, 1)))
        repeated = np.repeat(factor, slices, axis=0)
        for s in range(slices):
            scalar = coeffs[s].item()
            if not scalar.imag:
                scalar = scalar.real
            alone = np.ascontiguousarray(block[s:s + 1])
            assert (column * block)[s].tobytes() == (scalar * alone).tobytes()
            assert (block * column)[s].tobytes() == (alone * scalar).tobytes()
            assert np.multiply(block, repeated)[s].tobytes() == (
                np.multiply(alone, factor).tobytes())


def test_a_masked_copy_keeps_an_off_slices_bytes():
    # circuit._compile_grid leaves the slices in which a toggled element is
    # off as they were, by np.copyto(..., where=) (and, for a swap,
    # np.where) with a (slices x 1) mask: their bytes, signed zeros
    # included, while the on slices take the new values
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0)]
    rng = np.random.default_rng(SEED)
    old = np.array([zeros, zeros[::-1], [1 + 2j, -0.0 - 3j, 5e-324j, -1.0]])
    new = random_complex(rng, *old.shape)
    for on in ([True, False, False], [False, True, True], [False] * 3):
        on = np.array(on).reshape(-1, 1)
        kept = new.copy()
        np.copyto(kept, old, where=~on)
        chosen = np.where(on, new, old)
        for s in range(len(old)):
            want = (new if on[s, 0] else old)[s].tobytes()
            assert kept[s].tobytes() == chosen[s].tobytes() == want


@st.composite
def families(draw):
    """A random layout, its toggle sets and a family of K slices: phases
    ("phi" and "psi") as K values or one, and K coefficient pairs for some
    splitters, two of them sharing one sequence when drawn so."""
    m = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(("bs", "bs", "phi", "psi", "swap")),
                          min_size=1, max_size=7))
    k = draw(st.integers(1, 3))
    angle = st.floats(0.1, 1.5)

    def splitter():
        return BeamSplitterCoeffs.from_angle(
            draw(angle), draw(st.floats(0, 2 * math.pi)),
            draw(st.sampled_from((1, -1))))

    elements, coeffs, shared = [], {}, None
    for i, kind in enumerate(kinds):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        if kind == "bs":
            name = f"B{i}"
            elements.append(CircuitElement("bs", name, (a, b), splitter()))
            if draw(st.booleans()):
                if shared is None or draw(st.booleans()):
                    shared = [splitter() for _ in range(k)]
                coeffs[name] = shared
        elif kind == "swap":
            elements.append(CircuitElement("swap", f"S{i}", (a, b)))
        else:
            elements.append(CircuitElement("phase", f"P{i}", (a,),
                                           param=kind))
    names = [e.name for e in elements]
    toggles = frozenset(draw(st.sets(st.sampled_from(names))))
    sets = draw(st.lists(st.sets(st.sampled_from(sorted(toggles)))
                         if toggles else st.just(set()),
                         min_size=1, max_size=3))
    circuit = Circuit(m, tuple(elements), {}, toggles)
    phases = {p: (np.array(draw(st.lists(st.floats(-10, 10), min_size=k,
                                         max_size=k)))
                  if draw(st.booleans()) else draw(st.floats(-10, 10)))
              for p in circuit.parameters}
    rows = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    if not coeffs and not any(np.ndim(v) for v in phases.values()):
        k = 1       # no array: one slice per set
    return circuit, phases, sets, coeffs, rows, k


@settings(max_examples=150, deadline=None)
@given(families())
def test_each_slice_of_a_family_is_its_own_compile_bit_for_bit(family):
    # the two forms above, end to end: slice s K + j of one family compile
    # equals the one-set compile of set s with the j-th phases and
    # coefficients, built into the layout, bit for bit; toggled splitters,
    # swaps and delays, and K = 1, included
    circuit, phases, sets, coeffs, rows, k = family
    block = _compile_grid(circuit, phases, rows=rows, sets=sets,
                          coeffs=coeffs)
    assert block.shape == (len(sets) * k, len(rows), circuit.mode_count)
    for j in range(k):
        layout = Circuit(circuit.mode_count, tuple(
            dataclasses.replace(e, coeffs=coeffs[e.name][j])
            if e.name in coeffs else e for e in circuit.elements),
            {}, circuit.toggles)
        at = {p: float(np.broadcast_to(v, k)[j]) for p, v in phases.items()}
        for s, enabled in enumerate(sets):
            (alone,) = _compile_grid(layout, at, enabled, rows)
            assert block[s * k + j].tobytes() == alone.tobytes()


def test_complex_astype_bool_is_true_when_either_part_is_nonzero():
    # measurement._support keeps the kets whose rows or columns are nonzero
    values = np.array([0j, -0.0 + 0j, 1j, 1 + 0j, 5e-324j, complex(0, -0.0)])
    assert values.astype(bool).tolist() == [False, False, True, True, True,
                                            False]
