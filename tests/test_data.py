import tracemalloc

import numpy as np
import pytest

from revtrain import data
from revtrain.errors import ConfigError, DataFormatError

from oracles import oneshot_synthesize_cifar_like, whole_split_channel_constants


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cifar")
    data.synthesize_cifar_like(root, seed=11)
    return root


@pytest.fixture(scope="module")
def dataset(synth_root):
    return data.load_cifar10(synth_root)


def test_loaded_shapes(dataset):
    assert dataset.train_images.shape == (50_000, 3, 32, 32)
    assert dataset.train_labels.shape == (50_000,)
    assert dataset.test_images.shape == (10_000, 3, 32, 32)
    assert dataset.train_images.dtype == np.uint8
    assert dataset.train_labels.min() >= 0
    assert dataset.train_labels.max() <= 9


def test_first_record_matches_independent_parse(synth_root, dataset):
    # parse the first record by hand from raw bytes: 1 label byte, then
    # red, green, blue planes of 1024 row-major pixels each
    raw = (synth_root / "data_batch_1.bin").read_bytes()
    assert raw[0] == dataset.train_labels[0]
    for ch, y, x in [(0, 0, 0), (1, 7, 31), (2, 31, 15), (0, 16, 16)]:
        byte = raw[1 + ch * 1024 + y * 32 + x]
        assert byte == dataset.train_images[0, ch, y, x]
    assert sum(raw[1:3073]) == int(dataset.train_images[0].sum())


def test_record_order_across_files(synth_root, dataset):
    raw = (synth_root / "data_batch_3.bin").read_bytes()
    # records 20000..29999 of the train split come from the third file
    assert raw[0] == dataset.train_labels[20_000]
    assert raw[3073] == dataset.train_labels[20_001]


def test_truncated_file_reports_sizes(tmp_path, synth_root):
    for name in data.TRAIN_FILES + (data.TEST_FILE,):
        (tmp_path / name).write_bytes((synth_root / name).read_bytes())
    (tmp_path / "data_batch_2.bin").write_bytes(b"\x00" * 1000)
    with pytest.raises(DataFormatError, match="data_batch_2.bin.*30730000.*1000"):
        data.load_cifar10(tmp_path)


def test_missing_directory_named():
    with pytest.raises(DataFormatError, match="no_such_dir"):
        data.load_cifar10("no_such_dir")


def test_out_of_range_label_rejected(tmp_path, synth_root):
    for name in data.TRAIN_FILES + (data.TEST_FILE,):
        (tmp_path / name).write_bytes((synth_root / name).read_bytes())
    raw = bytearray((synth_root / "test_batch.bin").read_bytes())
    raw[0] = 200
    (tmp_path / "test_batch.bin").write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="label 200"):
        data.load_cifar10(tmp_path)


def test_normalization_standardizes_train_split(dataset):
    x = dataset.normalize(dataset.train_images[:5000])
    # constants come from the full split; a large slice should be close
    assert abs(float(x.mean())) < 0.05
    assert abs(float(x.std()) - 1.0) < 0.05
    assert x.dtype == np.float32


@pytest.mark.parametrize("records", [data.CHUNK_RECORDS // 3, 2 * data.CHUNK_RECORDS + 7])
def test_channel_constants_match_whole_split_bitwise(records):
    rng = np.random.default_rng(records)
    images = rng.integers(0, 256, size=(records, *data.IMAGE_SHAPE), dtype=np.uint8)
    images[: records // 2, 1] //= 3  # channels and halves of the split differ
    mean, std = data.channel_constants(images)
    ref_mean, ref_std = whole_split_channel_constants(images)
    assert mean.dtype == std.dtype == np.float32
    assert mean.tobytes() == ref_mean.tobytes()
    assert std.tobytes() == ref_std.tobytes()


def test_chunk_size_changes_no_loaded_value(monkeypatch, synth_root, dataset):
    # 3000 does not divide a file's 10000 records, so each file ends on a
    # short chunk
    monkeypatch.setattr(data, "CHUNK_RECORDS", 3000)
    other = data.load_cifar10(synth_root)
    for field in ("train_images", "train_labels", "test_images", "test_labels", "mean", "std"):
        assert np.array_equal(getattr(other, field), getattr(dataset, field)), field


def test_load_holds_only_the_uint8_splits_and_one_chunk(synth_root):
    splits = 60_000 * (data.PIXELS_PER_RECORD + 8)  # uint8 images, int64 labels
    # one float32 chunk of images for the statistics, one chunk of raw records
    # for reading, and a megabyte for everything small
    allowance = data.CHUNK_RECORDS * (4 * data.PIXELS_PER_RECORD + data.RECORD_BYTES) + 2**20
    tracemalloc.start()
    try:
        data.load_cifar10(synth_root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= splits + allowance, (peak, splits, allowance)


def test_pixel_mean_std_matches_numpy():
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(data.CHUNK_RECORDS + 13, *data.IMAGE_SHAPE), dtype=np.uint8)
    mean, std = data.pixel_mean_std(images)
    assert mean == pytest.approx(float(images.mean()), rel=1e-12)
    assert std == pytest.approx(float(images.std()), rel=1e-12)


def test_chunked_synthesis_matches_one_shot_bytes(tmp_path, monkeypatch):
    # a small file size that the chunk does not divide
    monkeypatch.setattr(data, "RECORDS_PER_FILE", 2 * data.CHUNK_RECORDS + 500)
    data.synthesize_cifar_like(tmp_path / "chunked", seed=4)
    oneshot_synthesize_cifar_like(tmp_path / "oneshot", seed=4)
    for name in data.TRAIN_FILES + (data.TEST_FILE,):
        raw = (tmp_path / "chunked" / name).read_bytes()
        assert len(raw) == data.RECORDS_PER_FILE * data.RECORD_BYTES
        assert raw == (tmp_path / "oneshot" / name).read_bytes(), name


def test_classes_are_separable(dataset):
    # nearest class-mean classification should beat chance by a wide margin,
    # otherwise the synthetic task is too hard to train on
    imgs = dataset.train_images[:2000].astype(np.float32)
    labels = dataset.train_labels[:2000]
    means = np.stack([imgs[labels == c].mean(axis=0) for c in range(10)])
    test = dataset.test_images[:500].astype(np.float32)
    d = ((test[:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
    acc = float((d.argmin(axis=1) == dataset.test_labels[:500]).mean())
    assert acc > 0.5


def test_augment_is_seed_deterministic(dataset):
    batch = dataset.train_images[:64]
    a = data.augment(batch, seed=7)
    b = data.augment(batch, seed=7)
    c = data.augment(batch, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == batch.shape
    assert a.dtype == batch.dtype


def test_augment_crops_from_zero_padding(dataset):
    batch = dataset.train_images[:256]
    out = data.augment(batch, seed=3)
    # a crop shifted off the padded edge leaves zero rows or columns
    border = np.concatenate([
        out[:, :, :4, :].reshape(len(out), -1),
        out[:, :, -4:, :].reshape(len(out), -1),
    ], axis=1)
    assert (border == 0).any()


def test_take_subset(dataset):
    xs, ys = data.take_subset(dataset.train_images, dataset.train_labels, 500, seed=1)
    xs2, ys2 = data.take_subset(dataset.train_images, dataset.train_labels, 500, seed=1)
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
    assert len(xs) == 500
    for n in (10**6, 0, -3):
        with pytest.raises(ConfigError):
            data.take_subset(dataset.test_images, dataset.test_labels, n, seed=0)


def test_ensure_dataset_synthesizes_once(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "RECORDS_PER_FILE", 300)
    root = tmp_path / "auto"
    ds = data.ensure_dataset(root)
    assert ds.train_images.shape[0] == 5 * data.RECORDS_PER_FILE
    stamp = (root / "data_batch_1.bin").stat().st_mtime_ns
    data.ensure_dataset(root)
    assert (root / "data_batch_1.bin").stat().st_mtime_ns == stamp


def test_data_root_env(monkeypatch):
    monkeypatch.setenv(data.DATA_ENV, "/somewhere")
    assert str(data.data_root()) == "/somewhere"
    assert str(data.data_root("/explicit")) == "/explicit"
    monkeypatch.delenv(data.DATA_ENV)
    with pytest.raises(ConfigError, match="REVTRAIN_DATA"):
        data.data_root()
