/**
 * @file
 * Unit tests for the on-disk FileStore: round trips, nested keys, torn-write
 * detection, crash-consistency damage (truncation, bit flips, zero fill),
 * previous-format files, directory pruning on Erase, key validation,
 * lock-free concurrent Put/Get/Erase/listing, and
 * interchangeability with MemoryStore through the ObjectStore interface.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"
#include "tensor/serialize.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace fs = std::filesystem;

namespace moc {
namespace {

/** RAII temp directory for one test. */
class TempDir {
  public:
    explicit TempDir(const char* tag) {
        path_ = fs::temp_directory_path() /
                (std::string("moc_fs_test_") + tag + "_" +
                 std::to_string(::getpid()));
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const fs::path& path() const { return path_; }

  private:
    fs::path path_;
};

Blob
MakeBlob(std::size_t size, std::uint8_t fill) {
    return Blob(size, fill);
}

TEST(FileStore, PutGetRoundTrip) {
    TempDir dir("roundtrip");
    FileStore store(dir.path());
    store.Put("ckpt", MakeBlob(1024, 0x7E));
    ASSERT_TRUE(store.Contains("ckpt"));
    const auto blob = store.Get("ckpt");
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->size(), 1024U);
    EXPECT_EQ(blob->front(), 0x7E);
}

TEST(FileStore, NestedKeysBecomeDirectories) {
    TempDir dir("nested");
    FileStore store(dir.path());
    store.Put("moe/0/expert/3/w", MakeBlob(64, 1));
    store.Put("moe/0/expert/3/o", MakeBlob(64, 2));
    store.Put("layer/1/attn/w", MakeBlob(64, 3));
    EXPECT_EQ(store.Count(), 3U);
    EXPECT_EQ(store.Keys(),
              (std::vector<std::string>{"layer/1/attn/w", "moe/0/expert/3/o",
                                        "moe/0/expert/3/w"}));
    EXPECT_EQ(store.TotalBytes(), 192U);
}

TEST(FileStore, OverwriteReplaces) {
    TempDir dir("overwrite");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(100, 1));
    store.Put("k", MakeBlob(10, 2));
    EXPECT_EQ(store.Get("k")->size(), 10U);
    EXPECT_EQ(store.TotalBytes(), 10U);
}

TEST(FileStore, EraseAndMissingKey) {
    TempDir dir("erase");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(8, 0));
    store.Erase("k");
    EXPECT_FALSE(store.Contains("k"));
    EXPECT_FALSE(store.Get("k").has_value());
    store.Erase("never-existed");  // no-op
}

TEST(FileStore, SurvivesReopen) {
    TempDir dir("reopen");
    {
        FileStore store(dir.path());
        store.Put("persisted/key", MakeBlob(256, 0x42));
    }
    FileStore reopened(dir.path());
    ASSERT_TRUE(reopened.Contains("persisted/key"));
    EXPECT_EQ(reopened.Get("persisted/key")->size(), 256U);
}

TEST(FileStore, DetectsTornWrite) {
    TempDir dir("torn");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(128, 0xAB));
    // Corrupt the file on disk behind the store's back.
    const fs::path file = dir.path() / "k.blob";
    {
        std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(64);
        const char evil = 0x00;
        f.write(&evil, 1);
    }
    EXPECT_THROW(store.Get("k"), std::runtime_error);
}

/** Overwrites byte range [offset, offset+n) of @p file with @p value. */
void
Smash(const fs::path& file, std::size_t offset, std::size_t n, char value) {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    for (std::size_t i = 0; i < n; ++i) {
        f.write(&value, 1);
    }
}

obs::Counter&
CorruptReads() {
    return obs::MetricsRegistry::Instance().GetCounter(
        "store.corrupt_reads_total");
}

/** Every crash-consistency damage mode maps to the typed kCorrupt error. */
TEST(FileStoreCrash, BitFlipIsTypedCorrupt) {
    TempDir dir("bitflip");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(128, 0xAB));
    Smash(dir.path() / "k.blob", 40, 1, 0x12);
    const std::uint64_t before = CorruptReads().value();
    try {
        store.Get("k");
        FAIL() << "corrupt blob read back without error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
        EXPECT_EQ(e.key(), "k");
    }
    EXPECT_EQ(CorruptReads().value(), before + 1);
}

TEST(FileStoreCrash, TruncationIsTypedCorrupt) {
    TempDir dir("truncate");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(256, 0x33));
    // A crash mid-write leaves a short file: payload and trailer cut off.
    fs::resize_file(dir.path() / "k.blob", 100);
    try {
        store.Get("k");
        FAIL() << "truncated blob read back without error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
    }
}

TEST(FileStoreCrash, FileShorterThanTrailerIsTypedCorrupt) {
    TempDir dir("stub");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(64, 0x11));
    fs::resize_file(dir.path() / "k.blob", 2);  // shorter than the CRC
    const std::uint64_t before = CorruptReads().value();
    try {
        store.Get("k");
        FAIL() << "trailer-less blob read back without error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
    }
    EXPECT_EQ(CorruptReads().value(), before + 1);
}

TEST(FileStoreCrash, ZeroFillIsTypedCorrupt) {
    TempDir dir("zerofill");
    FileStore store(dir.path());
    store.Put("k", MakeBlob(512, 0x55));
    // Journal replay after power loss can leave a zero-filled extent.
    Smash(dir.path() / "k.blob", 0, 512 + sizeof(std::uint32_t), 0x00);
    EXPECT_THROW(store.Get("k"), StoreError);
    // The typed error still satisfies legacy std::runtime_error catch sites.
    EXPECT_THROW(store.Get("k"), std::runtime_error);
}

TEST(FileStoreCrash, DamageToOneKeyLeavesOthersReadable) {
    TempDir dir("isolation");
    FileStore store(dir.path());
    store.Put("good", MakeBlob(64, 0x01));
    store.Put("bad", MakeBlob(64, 0x02));
    Smash(dir.path() / "bad.blob", 10, 4, 0x7F);
    EXPECT_THROW(store.Get("bad"), StoreError);
    EXPECT_EQ(store.Get("good")->size(), 64U);
}

TEST(FileStoreCrash, FlippedTensorPayloadIsTypedCorrupt) {
    TempDir dir("tensorflip");
    FileStore store(dir.path());
    Rng rng(11);
    const Blob blob = SerializeTensor(Tensor::Randn({8}, rng, 1.0F));
    store.Put("t", blob);
    // The last payload byte: the encoding itself carries no checksum, so
    // the file trailer's CRC-32C is what refuses it.
    Smash(dir.path() / "t.blob", blob.size() - 1, 1,
          static_cast<char>(blob.back() ^ 0xFF));
    try {
        store.Get("t");
        FAIL() << "flipped tensor payload read back without error";
    } catch (const BlobFormatError&) {
        FAIL() << "an intact trailer was reported as a format error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
    }
}

TEST(FileStoreCrash, PreviousFormatFileIsTypedFormatError) {
    TempDir dir("oldformat");
    {
        // The previous layout: the blob, then its IEEE CRC-32, no tag.
        const Blob blob = MakeBlob(64, 0x5C);
        const std::uint32_t crc = Crc32(blob.data(), blob.size());
        std::ofstream f(dir.path() / "old.blob", std::ios::binary);
        f.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
        f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    }
    FileStore store(dir.path());
    const std::uint64_t before = CorruptReads().value();
    try {
        store.Get("old");
        FAIL() << "previous-format file read back without error";
    } catch (const BlobFormatError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
        EXPECT_NE(std::string(e.what()).find(FileStore::kFormatName),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(CorruptReads().value(), before + 1);
}

TEST(FileStore, EraseRemovesEmptiedDirectories) {
    TempDir dir("erase_dirs");
    FileStore store(dir.path());
    store.Put("gen/4/moe/0/w", MakeBlob(8, 1));
    store.Put("gen/4/moe/1/w", MakeBlob(8, 2));
    store.Erase("gen/4/moe/0/w");
    EXPECT_FALSE(fs::exists(dir.path() / "gen" / "4" / "moe" / "0"));
    EXPECT_TRUE(fs::exists(dir.path() / "gen" / "4" / "moe" / "1"));
    store.Erase("gen/4/moe/1/w");
    EXPECT_FALSE(fs::exists(dir.path() / "gen"));
    EXPECT_TRUE(fs::is_directory(dir.path()));  // the root stays
    store.Put("gen/4/moe/0/w", MakeBlob(8, 3));  // and is reusable
    EXPECT_EQ(store.Get("gen/4/moe/0/w")->front(), 3);
}

TEST(FileStore, RejectsBadKeys) {
    TempDir dir("badkeys");
    FileStore store(dir.path());
    EXPECT_THROW(store.Put("", MakeBlob(1, 0)), std::invalid_argument);
    EXPECT_THROW(store.Put("/abs", MakeBlob(1, 0)), std::invalid_argument);
    EXPECT_THROW(store.Put("trailing/", MakeBlob(1, 0)), std::invalid_argument);
    EXPECT_THROW(store.Put("a//b", MakeBlob(1, 0)), std::invalid_argument);
    EXPECT_THROW(store.Put("../escape", MakeBlob(1, 0)), std::invalid_argument);
    EXPECT_THROW(store.Put("a/./b", MakeBlob(1, 0)), std::invalid_argument);
}

TEST(FileStore, EmptyBlobAllowed) {
    TempDir dir("empty");
    FileStore store(dir.path());
    store.Put("zero", Blob{});
    const auto blob = store.Get("zero");
    ASSERT_TRUE(blob.has_value());
    EXPECT_TRUE(blob->empty());
}

/**
 * A self-describing version: the first byte names the writer, the second
 * the round, the size depends on both, and every later byte is a function
 * of (writer, round, offset). A torn or mixed read cannot satisfy all three.
 */
Blob
VersionBlob(std::uint8_t writer, std::uint8_t round) {
    Blob blob(512 + 64 * writer + round);
    blob[0] = writer;
    blob[1] = round;
    for (std::size_t i = 2; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(writer * 31 + round * 7 + i);
    }
    return blob;
}

bool
IsWholeVersion(const Blob& blob) {
    return blob.size() >= 2 && blob == VersionBlob(blob[0], blob[1]);
}

TEST(FileStoreConcurrency, PutsAndGetsNeverSeeTornVersions) {
    TempDir dir("concurrent_putget");
    FileStore store(dir.path());
    constexpr int kThreads = 8;
    constexpr int kRounds = 12;
    std::atomic<int> failures{0};
    std::atomic<int> shared_reads{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const auto writer = static_cast<std::uint8_t>(t);
            const std::string own = "rank" + std::to_string(t) + "/own";
            for (int r = 0; r < kRounds; ++r) {
                const auto round = static_cast<std::uint8_t>(r);
                try {
                    store.Put(own, VersionBlob(writer, round));
                    store.Put("shared/key", VersionBlob(writer, round));
                    // Our own key holds exactly what we last wrote.
                    const auto mine = store.Get(own);
                    if (!mine || *mine != VersionBlob(writer, round)) {
                        ++failures;
                    }
                    // The shared key holds some writer's complete version.
                    const auto shared = store.Get("shared/key");
                    if (!shared || !IsWholeVersion(*shared)) {
                        ++failures;
                    }
                    ++shared_reads;
                } catch (const std::exception&) {
                    ++failures;  // a Put or Get tripped over another thread
                }
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(shared_reads.load(), kThreads * kRounds);
    EXPECT_EQ(store.Count(), static_cast<std::size_t>(kThreads) + 1);
    EXPECT_TRUE(store.TempFiles().empty());
}

TEST(FileStoreConcurrency, ListingDuringPutsNeverThrowsOrShowsTempFiles) {
    TempDir dir("concurrent_list");
    FileStore store(dir.path());
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&store, t] {
            for (int r = 0; r < 16; ++r) {
                const std::string key = "gen/" + std::to_string(r % 4) + "/rank" +
                                        std::to_string(t) + "/w";
                store.Put(key, Blob(256, static_cast<std::uint8_t>(r)));
                if (r % 3 == 2) {
                    store.Erase(key);
                }
            }
        });
    }
    std::atomic<int> listings{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&] {
            do {
                try {
                    for (const auto& key : store.Keys()) {
                        if (key.find(".tmp") != std::string::npos) {
                            ++failures;
                        }
                    }
                    if (store.TotalBytes() % 256 != 0) {
                        ++failures;  // a temp file's bytes were counted
                    }
                    store.Count();
                } catch (...) {
                    ++failures;
                }
                ++listings;
            } while (!done.load());
        });
    }
    for (auto& writer : writers) {
        writer.join();
    }
    done.store(true);
    for (auto& reader : readers) {
        reader.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(listings.load(), 2);
    for (const auto& key : store.Keys()) {
        EXPECT_EQ(key.find(".tmp"), std::string::npos) << key;
    }
    EXPECT_TRUE(store.TempFiles().empty());
}

TEST(FileStoreConcurrency, PutAndEraseInOneDirectoryNeverFailAPut) {
    TempDir dir("concurrent_erase");
    FileStore store(dir.path());
    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Every key shares gen/1/d, so each Erase that empties it races
            // the other threads' Puts into it.
            const std::string key = "gen/1/d/k" + std::to_string(t);
            for (int r = 0; r < kRounds; ++r) {
                const Blob blob(64, static_cast<std::uint8_t>(r));
                try {
                    store.Put(key, blob);
                    const auto back = store.Get(key);
                    if (!back || *back != blob) {
                        ++failures;
                    }
                    store.Erase(key);
                } catch (const std::exception&) {
                    ++failures;
                }
            }
            store.Put(key, Blob(16, static_cast<std::uint8_t>(t)));
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(store.Count(), static_cast<std::size_t>(kThreads));
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(store.Get("gen/1/d/k" + std::to_string(t))->front(), t);
    }
    EXPECT_TRUE(store.TempFiles().empty());
}

TEST(FileStoreConcurrency, TempFilesListsLeftoversButKeysDoNot) {
    TempDir dir("leftover_temps");
    FileStore store(dir.path());
    store.Put("a/k", MakeBlob(64, 1));
    // What a writer killed between open and rename leaves behind, plus the
    // name an older single-temp protocol used.
    std::ofstream(dir.path() / "a" / "k.blob.tmp.123.0") << std::string(20, 'x');
    std::ofstream(dir.path() / "a" / "k.blob.tmp") << std::string(5, 'y');
    EXPECT_EQ(store.Keys(), std::vector<std::string>{"a/k"});
    EXPECT_EQ(store.TotalBytes(), 64U);
    const auto temps = store.TempFiles();
    ASSERT_EQ(temps.size(), 2U);
    EXPECT_EQ(temps[0].path.filename(), "k.blob.tmp");
    EXPECT_EQ(temps[0].bytes, 5U);
    EXPECT_EQ(temps[1].path.filename(), "k.blob.tmp.123.0");
    EXPECT_EQ(temps[1].bytes, 20U);
    // The store never removes them itself.
    store.Put("a/k", MakeBlob(32, 2));
    EXPECT_EQ(store.TempFiles().size(), 2U);
}

/** The same behavioural contract holds for both ObjectStore backends. */
class StoreContract : public ::testing::TestWithParam<int> {
  protected:
    void SetUp() override {
        if (GetParam() == 0) {
            store_ = std::make_unique<MemoryStore>();
        } else {
            dir_ = std::make_unique<TempDir>("contract");
            store_ = std::make_unique<FileStore>(dir_->path());
        }
    }
    std::unique_ptr<TempDir> dir_;
    std::unique_ptr<ObjectStore> store_;
};

TEST_P(StoreContract, BasicSemantics) {
    auto& store = *store_;
    EXPECT_EQ(store.Count(), 0U);
    store.Put("a/b", MakeBlob(5, 9));
    store.Put("a/c", MakeBlob(7, 9));
    EXPECT_EQ(store.Count(), 2U);
    EXPECT_EQ(store.TotalBytes(), 12U);
    EXPECT_TRUE(store.Contains("a/b"));
    EXPECT_FALSE(store.Contains("a"));
    store.Erase("a/b");
    EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a/c"}));
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreContract, ::testing::Values(0, 1),
                         [](const auto& info) {
                             return info.param == 0 ? "Memory" : "File";
                         });

}  // namespace
}  // namespace moc
