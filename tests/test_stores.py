"""Binary feature (GRMF) and weight (GRMW) store formats."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from genregraph.audio import AudioClip, encode_wav
from genregraph.cli import EXIT_OK, EXIT_USAGE, main
from genregraph.nn import Variant, build_model
from genregraph.stores import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    WEIGHT_MAGIC,
    WEIGHT_VERSION,
    FeatureRecord,
    StoreFormatError,
    read_feature_store,
    read_model,
    write_feature_store,
    write_model,
)


def sample_records(n=6, dim=30, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureRecord(
            song_id=f"Genre/Song_{i:03d}.wav",
            genre_index=i % 8,
            values=rng.normal(size=dim),
        )
        for i in range(n)
    ]


class TestFeatureRecord:
    def test_genre_name_lookup(self):
        rec = FeatureRecord(song_id="x", genre_index=3, values=np.zeros(30))
        assert rec.genre_name == "Hip-Hop"

    def test_rejects_out_of_range_genre(self):
        with pytest.raises(ValueError):
            FeatureRecord(song_id="x", genre_index=8, values=np.zeros(30))
        with pytest.raises(ValueError):
            FeatureRecord(song_id="x", genre_index=-1, values=np.zeros(30))


class TestFeatureStore:
    def test_round_trip_is_exact(self, tmp_path):
        records = sample_records()
        path = tmp_path / "features.grmf"
        write_feature_store(path, records)
        loaded = read_feature_store(path)
        assert len(loaded) == len(records)
        for orig, back in zip(records, loaded):
            assert back.song_id == orig.song_id
            assert back.genre_index == orig.genre_index
            assert np.array_equal(back.values, orig.values)

    def test_header_layout(self, tmp_path):
        records = sample_records(n=4)
        path = tmp_path / "features.grmf"
        write_feature_store(path, records)
        raw = path.read_bytes()
        assert raw[:4] == FEATURE_MAGIC
        version, count, dimension = struct.unpack_from("<III", raw, 4)
        assert (version, count, dimension) == (FEATURE_VERSION, 4, 30)

    def test_unicode_ids_survive(self, tmp_path):
        rec = FeatureRecord(song_id="Folk/Jürgen ö 歌.wav", genre_index=2, values=np.ones(30))
        path = tmp_path / "u.grmf"
        write_feature_store(path, [rec])
        assert read_feature_store(path)[0].song_id == rec.song_id

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = sample_records(seed=5)
        a, b = tmp_path / "a.grmf", tmp_path / "b.grmf"
        write_feature_store(a, records)
        write_feature_store(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_mismatch_rejected_on_write(self, tmp_path):
        bad = FeatureRecord(song_id="x", genre_index=0, values=np.zeros(29))
        with pytest.raises(ValueError):
            write_feature_store(tmp_path / "bad.grmf", [bad])

    def test_parses_the_bytes_given_and_names_the_path(self, tmp_path):
        path, other = tmp_path / "a.grmf", tmp_path / "b.grmf"
        write_feature_store(path, sample_records(n=3))
        write_feature_store(other, sample_records(n=2, seed=1))
        table = read_feature_store(path, other.read_bytes())
        assert table.ids == read_feature_store(other).ids
        assert np.array_equal(table.values, read_feature_store(other).values)
        with pytest.raises(ValueError, match="read-only"):
            table.values[0, 0] = 0.0
        with pytest.raises(StoreFormatError, match=f"^{path}: bad magic"):
            read_feature_store(path, b"GRMX" + path.read_bytes()[4:])
        weights = tmp_path / "gcn.grmw"
        write_model(weights, build_model(Variant.GCN, seed=0))
        with pytest.raises(StoreFormatError, match=f"^{weights}: bad magic"):
            read_model(weights, b"GRMX" + weights.read_bytes()[4:])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.grmf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(StoreFormatError, match="magic"):
            read_feature_store(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.grmf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 9, 0, 30))
        with pytest.raises(StoreFormatError, match="version"):
            read_feature_store(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.grmf"
        write_feature_store(path, sample_records(n=3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_feature_store(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "x.grmf"
        write_feature_store(path, sample_records(n=2))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(StoreFormatError, match="trailing"):
            read_feature_store(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        records = sample_records(n=3)
        records[1].values[7] = bad
        path = tmp_path / "bad.grmf"
        write_feature_store(path, records)
        with pytest.raises(StoreFormatError, match="non-finite"):
            read_feature_store(path)

    def test_oversized_header_count_is_truncation(self, tmp_path):
        path = tmp_path / "big.grmf"
        write_feature_store(path, sample_records(n=1))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 2**32 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="truncated"):
            read_feature_store(path)

    def test_corrupt_genre_index_rejected(self, tmp_path):
        path = tmp_path / "g.grmf"
        write_feature_store(path, sample_records(n=1))
        raw = bytearray(path.read_bytes())
        # the genre column starts right after the header and the 1 x 30 values
        raw[16 + 8 * 1 * 30] = 200
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="genre index 200"):
            read_feature_store(path)

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.grmf"
        write_feature_store(path, [])
        assert len(read_feature_store(path)) == 0


# a function-scoped tmp_path is fine here: every example rewrites its files
_EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# (offset, 0): cut the file at offset; (offset, mask): XOR the byte at offset
_CORRUPTION = st.tuples(st.integers(0, 10**6), st.integers(0, 255))


def _corrupted(raw: bytes, corruption: tuple[int, int]) -> bytes:
    offset, mask = corruption
    offset %= len(raw)
    if mask == 0:
        return raw[:offset]
    return raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1 :]


def _sixteen_song_store(path) -> None:
    records = [
        FeatureRecord(song_id=f"g{i % 8}/s{i}", genre_index=i % 8, values=np.full(30, i / 7.0))
        for i in range(16)
    ]
    write_feature_store(path, records)


def _recommend_exits_0_or_2(capsys, *argv: str) -> None:
    """`recommend` exits 0 with finite distances and nothing on stderr, or
    2 with one `error:` line; never a traceback."""
    capsys.readouterr()
    rc = main(["recommend", *argv])
    out, err = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err
    if rc == EXIT_USAGE:
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""
        assert all(np.isfinite(float(line.split()[-1])) for line in out.splitlines()[1:])


class TestFeatureStoreRobustness:
    @_EXAMPLES
    @given(corruption=_CORRUPTION)
    def test_corrupt_store_reads_or_raises_a_format_error(self, tmp_path, corruption):
        path = tmp_path / "c.grmf"
        write_feature_store(path, sample_records(n=5))
        path.write_bytes(_corrupted(path.read_bytes(), corruption))
        try:
            read_feature_store(path)
        except (StoreFormatError, ValueError):
            pass

    @_EXAMPLES
    @given(corruption=_CORRUPTION, variant=st.sampled_from(list(Variant)))
    def test_recommend_on_a_corrupt_store_exits_0_or_2(
        self, tmp_path, capsys, corruption, variant
    ):
        store, weights = tmp_path / "c.grmf", tmp_path / "w.grmw"
        _sixteen_song_store(store)
        write_model(weights, build_model(variant, seed=0))
        store.write_bytes(_corrupted(store.read_bytes(), corruption))
        _recommend_exits_0_or_2(
            capsys, "--store", str(store), "--weights", str(weights), "--song-id", "g0/s0"
        )

    @_EXAMPLES
    @given(
        rows=st.lists(
            st.tuples(
                st.text(st.characters(exclude_characters="\0"), max_size=6),
                st.integers(0, 7),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            ),
            max_size=6,
        )
    )
    @example(rows=[("g0/s0", 0, [0.0, 1.0, 2.0]), ("\ud800", 1, [3.0, 4.0, 5.0])])
    def test_write_read_write_is_byte_identical(self, tmp_path, rows):
        records = [FeatureRecord(song_id=i, genre_index=g, values=np.array(v)) for i, g, v in rows]
        first, second = tmp_path / "a.grmf", tmp_path / "b.grmf"
        # every example shares tmp_path, so an earlier one may have written first
        first.unlink(missing_ok=True)
        # a lone surrogate has no UTF-8 form: the writer refuses its id by name
        unencodable = [i for i, _, _ in rows if any("\ud800" <= c <= "\udfff" for c in i)]
        if unencodable:
            with pytest.raises(ValueError, match="UTF-8 cannot encode") as refused:
                write_feature_store(first, records, dimension=3)
            assert str(refused.value).startswith(f"record {unencodable[0]!r} ")
            assert "\n" not in str(refused.value) and not first.exists()
            return
        write_feature_store(first, records, dimension=3)
        write_feature_store(second, read_feature_store(first), dimension=3)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_utf8_id_is_a_format_error(self, tmp_path):
        path = tmp_path / "u.grmf"
        write_feature_store(path, sample_records(n=1))
        raw = bytearray(path.read_bytes())
        raw[16 + 8 * 1 * 30 + 1] = 0xFF  # first byte of the first id
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="UTF-8"):
            read_feature_store(path)

    def test_nul_in_an_id_is_refused_on_write(self, tmp_path):
        # the id column ends each id with a NUL, so an id may not hold one
        rec = FeatureRecord(song_id="Rock/a\0b.wav", genre_index=0, values=np.zeros(30))
        with pytest.raises(ValueError, match="NUL"):
            write_feature_store(tmp_path / "nul.grmf", [rec])
        assert not (tmp_path / "nul.grmf").exists()

    def test_every_strict_prefix_is_truncated(self, tmp_path):
        path = tmp_path / "p.grmf"
        write_feature_store(path, sample_records(n=3))
        raw = path.read_bytes()
        for end in range(4, len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(StoreFormatError, match="truncated"):
                read_feature_store(path)

    def test_version_1_store_asks_to_re_run_extract(self, tmp_path, capsys):
        store, weights = tmp_path / "v1.grmf", tmp_path / "w.grmw"
        store.write_bytes(FEATURE_MAGIC + struct.pack("<III", 1, 0, 30))
        write_model(weights, build_model(Variant.GCN, seed=0))
        rc = main(["recommend", "--store", str(store), "--weights", str(weights), "--song-id", "x"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "re-run extract" in err


class TestWeightStoreRobustness:
    # 28 is the sign-and-exponent byte of the first graph-layer weight:
    # XOR 0x40 makes it about 1e306, and distances from it overflow
    @_EXAMPLES
    @given(corruption=_CORRUPTION, variant=st.sampled_from(list(Variant)))
    @example(corruption=(28, 0x40), variant=Variant.GCN)
    def test_corrupt_weights_read_or_raise_and_recommend_exits_0_or_2(
        self, tmp_path, capsys, corruption, variant
    ):
        store, weights = tmp_path / "c.grmf", tmp_path / "w.grmw"
        _sixteen_song_store(store)
        write_model(weights, build_model(variant, seed=0))
        weights.write_bytes(_corrupted(weights.read_bytes(), corruption))
        try:
            model = read_model(weights)
        except (StoreFormatError, ValueError):
            pass
        else:
            layers = [model.graph_layer, model.embed_head, *model.mlp]
            assert all(np.isfinite(a).all() for l in layers if l for a in l.arrays())
        _recommend_exits_0_or_2(
            capsys, "--store", str(store), "--weights", str(weights), "--song-id", "g0/s0"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_names_its_layer(self, tmp_path, capsys, bad):
        model = build_model(Variant.GCN, seed=0)
        model.graph_layer.weight[2, 7] = bad
        model.mlp[1].bias[0] = bad
        store, weights = tmp_path / "c.grmf", tmp_path / "gcn.grmw"
        _sixteen_song_store(store)
        write_model(weights, model)
        with pytest.raises(StoreFormatError, match="layer 0 of 5 has a non-finite weight"):
            read_model(weights)
        model.graph_layer.weight[2, 7] = 0.0
        write_model(weights, model)
        with pytest.raises(StoreFormatError, match="layer 3 of 5 has a non-finite weight"):
            read_model(weights)
        rc = main(["recommend", "--store", str(store), "--weights", str(weights), "--song-id", "g0/s0"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "layer 3 of 5" in err


    @pytest.mark.parametrize("verb", ["recommend", "evaluate"])
    def test_huge_finite_weight_is_one_line_naming_the_file(self, tmp_path, capsys, verb):
        # finite, so read_model takes it, but the forward on values of 100
        # and more overflows: no numpy warning, one error line
        model = build_model(Variant.GCN, seed=0)
        model.graph_layer.weight[0, 0] = 1e307
        store, weights = tmp_path / "c.grmf", tmp_path / "gcn.grmw"
        records = [
            FeatureRecord(f"g{i % 8}/s{i}", i % 8, np.full(30, 100.0 + i))
            for i in range(16 if verb == "recommend" else 48)
        ]
        write_feature_store(store, records)
        write_model(weights, model)
        query = ["--song-id", "g0/s0"] if verb == "recommend" else []
        rc = main([verb, "--store", str(store), "--weights", str(weights), *query])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: {store} or {weights}: values too large for the gcn model\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", [Variant.GCN, Variant.SAGE], ids=lambda v: v.value)
    @pytest.mark.parametrize("last", [False, True], ids=["first-block", "last-partial-block"])
    def test_overflow_in_one_row_block_is_one_line(self, tmp_path, capsys, variant, last):
        # 154 standard-normal songs in genres 0-6 and a lone genre-7 song
        # whose values take the first embedding column past the largest
        # float. The forward takes 145 (GCN) or 72 (SAGE) rows a block, so
        # as the last of 155 rows the lone song is in a partial block. GCN
        # needs self-loops for it; SAGE gives it a zero neighbor mean
        model = build_model(variant, seed=0)
        rng = np.random.default_rng(0)
        records = [FeatureRecord(f"g{i % 7}/s{i}", i % 7, rng.normal(size=30)) for i in range(154)]
        lone = FeatureRecord("g7/lone", 7, 1.7e308 * np.sign(model.graph_layer.weight[:30, 0]))
        store, weights = tmp_path / "lone.grmf", tmp_path / f"{variant.value}.grmw"
        write_feature_store(store, records + [lone] if last else [lone] + records)
        write_model(weights, model)
        loops = ["--self-loops"] if variant is Variant.GCN else []
        rc = main(["recommend", "--store", str(store), "--weights", str(weights),
                   "--song-id", "g0/s0", *loops])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: {store} or {weights}: values too large for the {variant.value} model\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "variant, verb",
        [(v, verb) for verb in ("recommend", "evaluate") for v in (Variant.GCN, Variant.SAGE)]
        + [(v, "train") for v in Variant],
        ids=lambda x: x.value if isinstance(x, Variant) else x,
    )
    def test_overflowing_neighbor_sum_is_one_line(self, tmp_path, capsys, verb, variant):
        # genre-0 rows at 1.7e308 are finite, so the store reads, but a sum
        # of two overflows, and so does one such row times a weight; a numpy
        # warning would raise here and exit 1
        store, weights = tmp_path / "huge.grmf", tmp_path / f"{variant.value}.grmw"
        _genre0_store(store, 1.7e308)
        if verb == "train":
            # fresh weights: only the store can hold the values
            args, blamed = ["--variant", variant.value, "--out", str(tmp_path)], str(store)
        else:
            write_model(weights, build_model(variant, seed=0))
            query = ["--song-id", "g1/s1"] if verb == "recommend" else ["--out", str(tmp_path)]
            args, blamed = ["--weights", str(weights), *query], f"{store} or {weights}"
        rc = main([verb, "--store", str(store), *args])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: {blamed}: values too large for the {variant.value} model\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", [Variant.GCN, Variant.SAGE], ids=lambda v: v.value)
    def test_overflowing_attachment_distance_is_one_line(self, tmp_path, capsys, variant):
        # 1e155 squared overflows in the feature_knn distance of an audio
        # query; the error names the first song it cannot be measured to
        store, weights, wav = tmp_path / "e155.grmf", tmp_path / "w.grmw", tmp_path / "q.wav"
        _genre0_store(store, 1e155)
        write_model(weights, build_model(variant, seed=0))
        wav.write_bytes(_clip_wav())
        rc = main(["recommend", "--store", str(store), "--weights", str(weights),
                   "--audio", str(wav), "--attachment", "feature_knn"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == "error: distance from the query to 'g0/s0' is not finite\n"


def _genre0_store(path, value: float) -> None:
    """24 songs, 3 per genre: every genre-0 value is `value`, the rest
    standard normal."""
    rng = np.random.default_rng(0)
    write_feature_store(path, [
        FeatureRecord(f"g{i % 8}/s{i}", i % 8, np.full(30, value) if i % 8 == 0 else rng.normal(size=30))
        for i in range(24)
    ])


def _clip_wav(seconds=5.5, rate=22050) -> bytes:
    t = np.arange(int(seconds * rate)) / rate
    noise = np.random.default_rng(0).standard_normal(t.size)
    return encode_wav(AudioClip(0.5 * np.sin(2 * np.pi * 330 * t) + 0.05 * noise, rate))


class TestWavRobustness:
    # bytes 24-27 hold the sample rate: without the 384 kHz bound, these two
    # flips make resample ask for 642 MiB (byte 26, 0x80) or 5 GiB (27, 0x04)
    @settings(_EXAMPLES, max_examples=30)
    @given(corruption=st.tuples(st.one_of(st.integers(0, 47), st.integers(0, 10**6)), st.integers(0, 255)))
    @example(corruption=(27, 0x04))
    @example(corruption=(26, 0x80))
    def test_recommend_on_a_corrupt_wav_exits_0_or_2(self, tmp_path, capsys, corruption):
        store, weights, wav = tmp_path / "c.grmf", tmp_path / "w.grmw", tmp_path / "q.wav"
        _sixteen_song_store(store)
        write_model(weights, build_model(Variant.GCN, seed=0))
        wav.write_bytes(_corrupted(_clip_wav(), corruption))
        _recommend_exits_0_or_2(
            capsys, "--store", str(store), "--weights", str(weights), "--audio", str(wav)
        )

    def test_header_claiming_8_hz_is_one_line(self, tmp_path, capsys):
        # a valid 6 s WAV whose rate field says 8 Hz: resampling it to
        # 22050 Hz would need a 2.72 GiB array
        store, weights, wav = tmp_path / "c.grmf", tmp_path / "w.grmw", tmp_path / "q.wav"
        _sixteen_song_store(store)
        write_model(weights, build_model(Variant.GCN, seed=0))
        raw = bytearray(_clip_wav(seconds=6.0))
        struct.pack_into("<I", raw, 24, 8)
        wav.write_bytes(bytes(raw))
        rc = main(["recommend", "--store", str(store), "--weights", str(weights), "--audio", str(wav)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == "error: sample rate 8 Hz is below 8000 Hz\n"


class TestWeightStore:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_round_trip_preserves_every_layer(self, tmp_path, variant):
        model = build_model(variant, seed=4)
        path = tmp_path / f"{variant.value}.grmw"
        write_model(path, model)
        loaded = read_model(path)
        assert loaded.variant is variant
        for a, b in zip(model.mlp, loaded.mlp):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        if variant is Variant.PLAIN:
            assert loaded.graph_layer is None and loaded.embed_head is None
        else:
            assert np.array_equal(model.graph_layer.weight, loaded.graph_layer.weight)
            assert np.array_equal(model.embed_head.bias, loaded.embed_head.bias)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.grmw"
        write_model(path, build_model(Variant.GCN, seed=0))
        raw = path.read_bytes()
        assert raw[:4] == WEIGHT_MAGIC
        version, tag, layer_count = struct.unpack_from("<IBI", raw, 4)
        assert version == WEIGHT_VERSION
        assert tag == 1
        assert layer_count == 5

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = build_model(Variant.SAGE, seed=9)
        a, b = tmp_path / "a.grmw", tmp_path / "b.grmw"
        write_model(a, model)
        write_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.grmw"
        path.write_bytes(b"GRMF" + b"\x00" * 16)
        with pytest.raises(StoreFormatError, match="magic"):
            read_model(path)

    def test_unknown_variant_tag(self, tmp_path):
        path = tmp_path / "tag.grmw"
        path.write_bytes(WEIGHT_MAGIC + struct.pack("<IBI", WEIGHT_VERSION, 7, 3))
        with pytest.raises(StoreFormatError, match="variant tag"):
            read_model(path)

    def test_wrong_layer_count(self, tmp_path):
        path = tmp_path / "layers.grmw"
        path.write_bytes(WEIGHT_MAGIC + struct.pack("<IBI", WEIGHT_VERSION, 0, 5))
        with pytest.raises(StoreFormatError, match="layers"):
            read_model(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.grmw"
        write_model(path, build_model(Variant.PLAIN, seed=1))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_model(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "x.grmw"
        write_model(path, build_model(Variant.PLAIN, seed=1))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreFormatError, match="trailing"):
            read_model(path)

    def test_loaded_model_enforces_architecture(self, tmp_path):
        # A tampered graph-layer shape must fail the construction-time
        # parameter-count assertion, not load silently.
        model = build_model(Variant.GCN, seed=0)
        path = tmp_path / "shape.grmw"
        write_model(path, model)
        raw = bytearray(path.read_bytes())
        offset = 4 + 4 + 1 + 4
        in_dim, out_dim = struct.unpack_from("<II", raw, offset)
        assert (in_dim, out_dim) == (30, 60)
        struct.pack_into("<II", raw, offset, 60, 30)
        path.write_bytes(bytes(raw))
        with pytest.raises((StoreFormatError, ValueError)):
            read_model(path)
