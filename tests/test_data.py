"""Generator, manifest, and protocol-split tests."""
import math

import numpy as np
import pytest

from crfas.data import (
    ATTACK_TYPES,
    ManifestError,
    ManifestRecord,
    ProtocolError,
    SplitResult,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    load_image,
    read_image,
    read_manifest,
    read_split,
    split,
    write_image,
    write_manifest,
    write_split,
)


def make_records(subjects, sessions=(1, 2, 3), attacks=("print", "replay"), dataset="d0"):
    records = []
    for subject in subjects:
        for session in sessions:
            for attack in ("none",) + tuple(attacks):
                records.append(
                    ManifestRecord(
                        path=f"{dataset}/s{subject}_e{session}_{attack}.fimg",
                        subject_id=subject,
                        session=session,
                        label="live" if attack == "none" else "spoof",
                        attack_type=attack,
                        dataset_id=dataset,
                    )
                )
    return records


def record_keys(records):
    return {(r.dataset_id, r.path) for r in records}


def assert_partition(result: SplitResult, drawn):
    """The four lists are pairwise disjoint and cover exactly `drawn`."""
    keys = [record_keys(lst) for lst in result.lists().values()]
    union = set()
    total = 0
    for k in keys:
        union |= k
        total += len(k)
    assert total == len(union), "lists overlap"
    assert union == record_keys(drawn)


class TestImageIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (10, 12, 3)).astype(np.uint8)
        write_image(tmp_path / "a.fimg", pixels)
        np.testing.assert_array_equal(read_image(tmp_path / "a.fimg"), pixels)

    def test_all_black_loads_as_zeros(self, tmp_path):
        write_image(tmp_path / "b.fimg", np.zeros((4, 4, 3), dtype=np.uint8))
        record = ManifestRecord("b.fimg", 1, 1, "live", "none", "d0")
        image = load_image(record, tmp_path)
        assert image.shape == (4, 4, 3)
        np.testing.assert_array_equal(image, 0.0)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "c.fimg").write_bytes(b"JUNKxxxxxxxxxxxx")
        with pytest.raises(ManifestError, match="magic"):
            read_image(tmp_path / "c.fimg")

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        write_image(tmp_path / "d.fimg", rng.integers(0, 256, (6, 6, 3)).astype(np.uint8))
        raw = (tmp_path / "d.fimg").read_bytes()
        (tmp_path / "d.fimg").write_bytes(raw[:-5])
        with pytest.raises(ManifestError, match="expected"):
            read_image(tmp_path / "d.fimg")

    @pytest.mark.parametrize("w, h", [(0, 0), (0, 4), (4, 0)])
    def test_zero_extent_rejected(self, tmp_path, w, h):
        # a header-only file is the right length for either extent being 0
        (tmp_path / "e.fimg").write_bytes(b"FIMG" + w.to_bytes(4, "little") + h.to_bytes(4, "little"))
        with pytest.raises(ManifestError, match="empty"):
            read_image(tmp_path / "e.fimg")


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = make_records([1, 2])
        write_manifest(records, tmp_path / "m.txt", header={"seed": 7})
        assert read_manifest(tmp_path / "m.txt") == records

    def test_malformed_line_reports_lineno(self, tmp_path):
        (tmp_path / "m.txt").write_text("# ok\npath=a\tsubject=1\tgarbage\n")
        with pytest.raises(ManifestError, match="m.txt:2"):
            read_manifest(tmp_path / "m.txt")

    def test_missing_field_reports_lineno(self, tmp_path):
        (tmp_path / "m.txt").write_text("path=a\tsubject=1\tsession=1\tlabel=live\tattack=none\n")
        with pytest.raises(ManifestError, match="missing fields"):
            read_manifest(tmp_path / "m.txt")

    def test_label_attack_consistency_enforced(self):
        with pytest.raises(ManifestError, match="inconsistent"):
            ManifestRecord("p", 1, 1, "live", "print", "d0")
        with pytest.raises(ManifestError, match="inconsistent"):
            ManifestRecord("p", 1, 1, "spoof", "none", "d0")

    def test_separators_in_written_text_rejected(self, tmp_path):
        # a tab in a comment line reads as a record joined onto it, and one
        # in a dataset id as an extra field
        with pytest.raises(ManifestError, match="header"):
            write_manifest(make_records([1]), tmp_path / "m.txt", header={"note": "a\tb"})
        with pytest.raises(ManifestError, match="separators"):
            write_manifest([ManifestRecord("a.fimg", 1, 1, "live", "none", "d0\tnote=x")], tmp_path / "m.txt")

    @pytest.mark.parametrize("space", [" ", "\r", "\x0c", "\u2028"], ids=["space", "cr", "formfeed", "line_sep"])
    def test_trailing_whitespace_in_written_text_rejected(self, tmp_path, space):
        # the reader strips each line, so "synth0 " would read back as "synth0"
        record = ManifestRecord("a.fimg", 1, 1, "live", "none", "synth0" + space)
        with pytest.raises(ManifestError, match="whitespace"):
            write_manifest([record], tmp_path / "m.txt")

    def test_unknown_field_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("path=a\tsubject=1\tsession=1\tlabel=live\tattack=none\tdataset=d0\tnote=x\n")
        with pytest.raises(ManifestError, match="unknown fields"):
            read_manifest(tmp_path / "m.txt")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            read_manifest(tmp_path / "absent.txt")

    def test_byte_mutations_raise_or_load_the_same_records(self, tmp_path):
        # subjects 1-10 and sessions 1-3, so a digit replaced by "0" gives
        # id 0 or the same id, never another valid one; path and dataset are
        # free text, so only the other fields are compared
        records = [
            ManifestRecord(f"s{k:02d}_{attack}.fimg", k, 1 + k % 3, "live" if attack == "none" else "spoof", attack, f"d{k % 2}")
            for k, attack in zip(range(1, 11), ATTACK_TYPES + ATTACK_TYPES)
        ]
        write_manifest(records, tmp_path / "m.txt", header={"generator": "synthetic", "seed": 7})
        raw = (tmp_path / "m.txt").read_bytes()
        fixed = [(r.subject_id, r.session, r.label, r.attack_type) for r in records]
        target = tmp_path / "mutated.txt"
        for i in range(len(raw)):
            for byte in b"0 _+\ta\xff":
                target.write_bytes(raw[:i] + bytes([byte]) + raw[i + 1 :])
                try:
                    loaded = read_manifest(target)
                except ManifestError:
                    continue
                assert [(r.subject_id, r.session, r.label, r.attack_type) for r in loaded] == fixed, (i, bytes([byte]))

    def test_duplicate_rejected(self, tmp_path):
        records = make_records([1])
        write_manifest(records + records[:1], tmp_path / "m.txt")
        with pytest.raises(ManifestError, match="duplicate"):
            read_manifest(tmp_path / "m.txt")


class TestSynth:
    def test_counting_example(self, tmp_path):
        cfg = SynthConfig(subjects=10, sessions=3, attacks=("print", "replay"), side=16, seed=1)
        records = generate_synthetic(cfg, tmp_path / "data")
        assert len(records) == 90

    def test_determinism(self, tmp_path):
        cfg = SynthConfig(subjects=2, sessions=2, side=16, seed=9)
        a = generate_synthetic(cfg, tmp_path / "a")
        b = generate_synthetic(cfg, tmp_path / "b")
        assert [r.path for r in a] == [r.path for r in b]
        for r in a:
            pa = (tmp_path / "a" / r.path).read_bytes()
            pb = (tmp_path / "b" / r.path).read_bytes()
            assert pa == pb
        assert (tmp_path / "a" / "manifest.txt").read_text() == (tmp_path / "b" / "manifest.txt").read_text()

    def test_spoof_has_more_high_frequency_energy(self, tmp_path):
        cfg = SynthConfig(subjects=3, sessions=2, attacks=("print", "rigidmask"), side=24, seed=2)
        records = generate_synthetic(cfg, tmp_path / "data")

        def high_band_energy(record):
            img = read_image(tmp_path / "data" / record.path).astype(np.float64) / 255.0
            spectrum = np.abs(np.fft.fft2(img[:, :, 1]))
            freq = np.fft.fftfreq(cfg.side)
            fy, fx = np.meshgrid(freq, freq, indexing="ij")
            # live content sits at <= 3 cycles, attack textures at >= 4.5
            band = np.sqrt(fy**2 + fx**2) > 3.9 / cfg.side
            return (spectrum[band] ** 2).sum()

        by_key = {}
        for r in records:
            by_key.setdefault((r.subject_id, r.session), {})[r.attack_type] = r
        for (subject, session), group in by_key.items():
            live_energy = high_band_energy(group["none"])
            for attack in ("print", "rigidmask"):
                assert high_band_energy(group[attack]) > live_energy, (subject, session, attack)

    def test_bad_attack_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="attack"):
            generate_synthetic(SynthConfig(attacks=("nosuch",)), tmp_path / "x")

    @pytest.mark.parametrize(
        "name, values", [("attacks", ("print", "replay", "print")), ("datasets", ("synth0", "synth0"))]
    )
    def test_repeated_attack_or_dataset_rejected_before_any_output(self, tmp_path, name, values):
        # a repeat would write one file twice and list it twice in the manifest
        with pytest.raises(ValueError, match=f"{name} must not repeat"):
            generate_synthetic(SynthConfig(**{name: values}), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_negative_seed_rejected_before_any_output(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic(SynthConfig(seed=-1), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", ["noise_std", "overlay_amp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_bad_texture_knob_rejected_before_any_output(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=name):
            generate_synthetic(SynthConfig(**{name: value}), tmp_path / "x")
        assert not (tmp_path / "x").exists()


class TestProtocol1:
    def test_enumerated_example(self):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(1, {"label_fraction": 0.2}))
        labeled_subjects = {r.subject_id for r in result.labeled_train} | {r.subject_id for r in result.dev}
        assert labeled_subjects == {1, 2}
        assert {r.subject_id for r in result.unlabeled_train} == set(range(3, 11))
        assert all(r.session == 3 for r in result.test)
        assert record_keys(result.test) == record_keys([r for r in records if r.session == 3])
        # 20% of 2 labeled subjects rounds down to zero dev subjects
        assert result.dev == []
        assert_partition(result, records)

    def test_full_fraction_is_fully_supervised(self):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        assert result.unlabeled_train == []
        assert_partition(result, records)

    def test_monotone_in_fraction(self):
        records = make_records(range(1, 26))
        previous = set()
        for pct in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
            result = split(records, SplitSpec(1, {"label_fraction": pct}))
            labeled = record_keys(result.labeled_train) | record_keys(result.dev)
            assert previous <= labeled
            previous = labeled

    def test_dev_carved_from_tail_of_labeled(self):
        records = make_records(range(1, 26))
        result = split(records, SplitSpec(1, {"label_fraction": 0.2}))  # 5 subjects
        assert {r.subject_id for r in result.dev} == {5}
        assert {r.subject_id for r in result.labeled_train} == {1, 2, 3, 4}

    def test_zero_subjects_rejected(self):
        records = make_records([1, 2, 3])
        with pytest.raises(ProtocolError, match="zero"):
            split(records, SplitSpec(1, {"label_fraction": 0.05}))

    def test_missing_session_rejected(self):
        records = make_records([1, 2], sessions=(1, 2))
        with pytest.raises(ProtocolError, match="sessions"):
            split(records, SplitSpec(1, {"label_fraction": 0.5}))

    def test_multiple_datasets_rejected(self):
        records = make_records([1, 2]) + make_records([1, 2], dataset="d1")
        with pytest.raises(ProtocolError, match="single dataset"):
            split(records, SplitSpec(1, {"label_fraction": 0.5}))


class TestProtocol2:
    def test_mode_none_keeps_all_session3_in_test(self):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(2, {"extra_mode": "none"}))
        assert result.unlabeled_train == []
        assert record_keys(result.test) == record_keys([r for r in records if r.session == 3])
        assert_partition(result, records)

    def test_live_only_selects_live_prefix(self):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(2, {"extra_mode": "live_only_p", "extra_fraction": 0.5}))
        assert {r.subject_id for r in result.unlabeled_train} == {1, 2, 3, 4, 5}
        assert all(r.label == "live" and r.session == 3 for r in result.unlabeled_train)
        assert_partition(result, records)

    def test_live_spoof_takes_both_labels(self):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(2, {"extra_mode": "live_spoof_p", "extra_fraction": 0.5}))
        labels = {r.label for r in result.unlabeled_train}
        assert labels == {"live", "spoof"}
        assert {r.subject_id for r in result.unlabeled_train} == {1, 2, 3, 4, 5}
        assert_partition(result, records)

    @pytest.mark.parametrize("mode", [{}, {"extra_mode": "none"}], ids=["omitted", "none"])
    def test_fraction_without_mode_rejected(self, mode):
        # without a mode no session-3 data joins unlabeled, so the fraction would be ignored
        with pytest.raises(ProtocolError, match="extra_mode"):
            split(make_records(range(1, 11)), SplitSpec(2, {**mode, "extra_fraction": 0.4}))

    @pytest.mark.parametrize("mode", ["live_only_p", "live_spoof_p"])
    def test_zero_subjects_rejected(self, mode):
        with pytest.raises(ProtocolError, match="zero"):
            split(make_records(range(1, 11)), SplitSpec(2, {"extra_mode": mode, "extra_fraction": 0.05}))


class TestProtocol3:
    def test_leave_one_unlabeled(self):
        records = sum((make_records([1, 2, 3], dataset=d) for d in ("dA", "dB", "dC", "dD")), [])
        result = split(records, SplitSpec(3, {"unlabeled_dataset": "dB", "test_dataset": "dD"}))
        assert {r.dataset_id for r in result.unlabeled_train} == {"dB"}
        assert {r.dataset_id for r in result.test} == {"dD"}
        assert {r.dataset_id for r in result.labeled_train} == {"dA", "dC"}
        assert "dB" not in {r.dataset_id for r in result.labeled_train}
        assert_partition(result, records)

    def test_default_test_dataset_is_last(self):
        records = sum((make_records([1, 2], dataset=d) for d in ("dA", "dB", "dC")), [])
        result = split(records, SplitSpec(3, {"unlabeled_dataset": "dA"}))
        assert {r.dataset_id for r in result.test} == {"dC"}
        assert {r.dataset_id for r in result.labeled_train} == {"dB"}

    def test_too_few_datasets_rejected(self):
        records = sum((make_records([1], dataset=d) for d in ("dA", "dB")), [])
        with pytest.raises(ProtocolError, match="3 dataset_ids"):
            split(records, SplitSpec(3, {"unlabeled_dataset": "dA"}))


class TestProtocol4:
    def test_prefix_labeling_per_dataset(self):
        records = sum((make_records(range(1, 11), dataset=d) for d in ("dA", "dB", "dC")), [])
        result = split(records, SplitSpec(4, {"label_fraction": 0.5, "test_dataset": "dC"}))
        assert {r.dataset_id for r in result.test} == {"dC"}
        for d in ("dA", "dB"):
            labeled = {r.subject_id for r in result.labeled_train + result.dev if r.dataset_id == d}
            unlabeled = {r.subject_id for r in result.unlabeled_train if r.dataset_id == d}
            assert labeled == {1, 2, 3, 4, 5}
            assert unlabeled == {6, 7, 8, 9, 10}
        assert_partition(result, records)

    def test_monotone_in_fraction(self):
        records = sum((make_records(range(1, 11), dataset=d) for d in ("dA", "dB", "dC")), [])
        previous = set()
        for pct in (0.2, 0.5, 1.0):
            result = split(records, SplitSpec(4, {"label_fraction": pct, "test_dataset": "dC"}))
            labeled = record_keys(result.labeled_train) | record_keys(result.dev)
            assert previous <= labeled
            previous = labeled


class TestProtocol5:
    @staticmethod
    def records():
        return make_records(range(1, 11), attacks=[a for a in ATTACK_TYPES if a != "none"])

    def test_table_pairing_example(self):
        records = self.records()
        result = split(records, SplitSpec(5, {"unlabeled_attack": "papermask", "test_attack": "flexiblemask"}))
        # no flexiblemask record outside test; all papermask records unlabeled
        for name, lst in result.lists().items():
            if name != "test":
                assert all(r.attack_type != "flexiblemask" for r in lst), name
            if name != "unlabeled_train":
                assert all(r.attack_type != "papermask" for r in lst), name
        assert {r.attack_type for r in result.unlabeled_train} == {"papermask"}
        papermask_all = [r for r in records if r.attack_type == "papermask"]
        assert record_keys(result.unlabeled_train) == record_keys(papermask_all)

    def test_live_only_in_labeled_dev_test(self):
        result = split(self.records(), SplitSpec(5, {"unlabeled_attack": "papermask", "test_attack": "flexiblemask"}))
        assert all(r.label == "spoof" for r in result.unlabeled_train)
        assert any(r.label == "live" for r in result.test)
        assert any(r.label == "live" for r in result.labeled_train)

    def test_attack_partitions_disjoint(self):
        result = split(self.records(), SplitSpec(5, {"unlabeled_attack": "glasses", "test_attack": "fakehead"}))
        labeled_attacks = {r.attack_type for r in result.labeled_train + result.dev} - {"none"}
        assert "glasses" not in labeled_attacks and "fakehead" not in labeled_attacks
        assert len(labeled_attacks) == 5

    def test_too_few_attack_types_rejected(self):
        records = make_records(range(1, 5), attacks=("print", "replay"))
        with pytest.raises(ProtocolError, match="7 attack types"):
            split(records, SplitSpec(5, {"unlabeled_attack": "print", "test_attack": "replay"}))

    def test_same_attack_rejected(self):
        with pytest.raises(ProtocolError, match="differ"):
            split(self.records(), SplitSpec(5, {"unlabeled_attack": "print", "test_attack": "print"}))

    def test_single_subject_labels_nothing_and_is_rejected(self):
        # the one subject is the test subject, so no live or labeled-type record is left to label
        records = make_records([1], attacks=[a for a in ATTACK_TYPES if a != "none"])
        with pytest.raises(ProtocolError, match="protocol 5 labels no record"):
            split(records, SplitSpec(5, {"unlabeled_attack": "papermask", "test_attack": "glasses"}))


class TestSpecValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError, match="1..5"):
            split(make_records([1]), SplitSpec(6))

    def test_foreign_params_rejected(self):
        with pytest.raises(ProtocolError, match="does not take"):
            split(make_records([1]), SplitSpec(1, {"unlabeled_attack": "print"}))

    @pytest.mark.parametrize("value", [True, "0.5", math.nan, 0.0, 1.5])
    @pytest.mark.parametrize(
        "protocol, params",
        [(1, {}), (2, {"extra_mode": "live_only_p"}), (4, {"test_dataset": "dC"})],
        ids=["p1", "p2", "p4"],
    )
    def test_fraction_must_be_a_real_number_in_range(self, protocol, params, value):
        records = sum((make_records(range(1, 11), dataset=d) for d in ("dA", "dB", "dC")), [])
        name = "extra_fraction" if protocol == 2 else "label_fraction"
        if protocol != 4:
            records = [r for r in records if r.dataset_id == "dA"]
        with pytest.raises(ProtocolError, match=f"{name} must be a real number"):
            split(records, SplitSpec(protocol, {**params, name: value}))

    def test_write_split_emits_four_manifests(self, tmp_path):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(1, {"label_fraction": 0.5}))
        paths = write_split(result, tmp_path / "split", {"protocol": 1})
        assert sorted(p.name for p in paths.values()) == [
            "dev.txt", "labeled.train.txt", "test.txt", "unlabeled.train.txt",
        ]
        again = read_manifest(paths["labeled_train"])
        assert again == result.labeled_train

    def test_read_split_round_trips_write_split(self, tmp_path):
        records = make_records(range(1, 11))
        result = split(records, SplitSpec(1, {"label_fraction": 0.5}))
        assert all(result.lists().values())
        write_split(result, tmp_path / "split", {"protocol": 1})
        assert read_split(tmp_path / "split") == result
