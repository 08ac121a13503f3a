#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/store_error.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace moc {

namespace {

constexpr char kFileSuffix[] = ".blob";
/** Put temp files are `<key>.blob.tmp.<pid>.<seq>`; a crash of the previous
    Put protocol left `<key>.blob.tmp`, which the infix also matches. */
constexpr char kTempInfix[] = ".blob.tmp";
/** File trailer: [u32 CRC-32C of the blob][u32 kFormatTag]. */
constexpr std::uint32_t kFormatTag = 0x3246'4F4D;  // "MOF2" in file order
constexpr std::size_t kTrailerSize = 2 * sizeof(std::uint32_t);

void
ValidateKey(const std::string& key) {
    MOC_CHECK_ARG(!key.empty(), "empty store key");
    MOC_CHECK_ARG(key.front() != '/' && key.back() != '/',
                  "key must not start or end with '/': " << key);
    std::size_t start = 0;
    while (start <= key.size()) {
        const std::size_t end = key.find('/', start);
        const std::string segment =
            key.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
        MOC_CHECK_ARG(!segment.empty(), "empty path segment in key: " << key);
        MOC_CHECK_ARG(segment != "." && segment != "..",
                      "key may not contain dot segments: " << key);
        if (end == std::string::npos) {
            break;
        }
        start = end + 1;
    }
}

/** Seconds since the obs tracer epoch, for I/O latency histograms. */
double
NowSeconds() {
    return static_cast<double>(obs::Tracer::NowNs()) * 1e-9;
}

std::string
ErrnoText() {
    return std::strerror(errno);
}

/** write(2) until @p len bytes landed, retrying short writes and EINTR. */
bool
WriteAll(int fd, const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Flushes directory @p dir's entries to stable storage, so a rename into
 * it survives power loss. A directory that is gone was emptied and removed
 * by an Erase that ran after the rename: nothing is left to flush.
 */
void
SyncDir(const fs::path& dir, const std::string& key) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0 && errno == ENOENT) {
        return;
    }
    if (fd < 0) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "cannot open for fsync: " + dir.string());
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "fsync failed for " + dir.string());
    }
}

/** Times a Put re-creates its directory after a racing Erase removed it. */
constexpr int kMaxDirRaces = 8;

/**
 * Creates @p dir and opens temp file @p tmp in it. An Erase that empties
 * and removes the directory (or a parent) between the two steps makes the
 * open fail with ENOENT; the directory is then created again and the open
 * retried. Returns the fd, or -1 with errno set.
 */
int
OpenTempIn(const fs::path& dir, const fs::path& tmp) {
    int fd = -1;
    for (int attempt = 0; attempt <= kMaxDirRaces; ++attempt) {
        std::error_code ec;
        fs::create_directories(dir, ec);  // a failure shows in open's errno
        fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
        if (fd >= 0 || errno != ENOENT) {
            break;
        }
    }
    return fd;
}

/**
 * Unique temp file name for one Put of @p path: no two Puts, in this
 * process or another sharing the root, ever write the same temp file.
 */
fs::path
TempPathFor(const fs::path& path) {
    static std::atomic<std::uint64_t> seq{0};
    return path.string() + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

bool
EndsWith(const std::string& s, const std::string& suffix) {
    return s.size() > suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Visits every regular file under @p root with its root-relative generic
 * path. Concurrent Puts and Erases create and remove files mid-walk: an
 * entry or directory that vanishes is skipped, never an error.
 */
template <typename Fn>
void
WalkFiles(const fs::path& root, Fn&& fn) {
    std::vector<fs::path> dirs{root};
    while (!dirs.empty()) {
        const fs::path dir = std::move(dirs.back());
        dirs.pop_back();
        std::error_code ec;
        fs::directory_iterator it(dir, ec);
        for (const fs::directory_iterator end; !ec && it != end;
             it.increment(ec)) {
            const fs::directory_entry& entry = *it;
            std::error_code type_ec;
            if (entry.is_directory(type_ec) && !entry.is_symlink(type_ec)) {
                dirs.push_back(entry.path());
            } else if (entry.is_regular_file(type_ec)) {
                fn(entry, entry.path().lexically_relative(root).generic_string());
            }
        }
    }
}

}  // namespace

BlobFormatError::BlobFormatError(const std::string& key,
                                 const std::string& path)
    : StoreError(StoreErrorKind::kCorrupt, key,
                 path + " lacks the " + std::string(FileStore::kFormatName) +
                     " trailer tag (written by an older build, or the "
                     "trailer is damaged)") {}

FileStore::FileStore(fs::path root) : root_(std::move(root)) {
    if (fs::exists(root_)) {
        MOC_CHECK_ARG(fs::is_directory(root_),
                      "FileStore root is not a directory: " << root_.string());
    } else {
        fs::create_directories(root_);
    }
}

fs::path
FileStore::PathFor(const std::string& key) const {
    ValidateKey(key);
    return root_ / (key + kFileSuffix);
}

void
FileStore::Put(const std::string& key, Blob blob) {
    const obs::TraceSpan span("filestore.put", "storage");
    const double start = NowSeconds();
    const fs::path path = PathFor(key);
    const fs::path dir = path.parent_path();
    const fs::path tmp = TempPathFor(path);
    const int fd = OpenTempIn(dir, tmp);
    if (fd < 0) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "cannot open " + tmp.string() + ": " + ErrnoText());
    }
    const std::uint32_t trailer[2] = {Crc32c(blob.data(), blob.size()),
                                      kFormatTag};
    std::string failed;
    if (!WriteAll(fd, blob.data(), blob.size()) ||
        !WriteAll(fd, trailer, sizeof(trailer))) {
        failed = "write";
    } else if (::fsync(fd) != 0) {  // data durable before it becomes visible
        failed = "fsync";
    }
    if (::close(fd) != 0 && failed.empty()) {
        failed = "close";
    }
    if (failed.empty() && ::rename(tmp.c_str(), path.c_str()) != 0) {
        failed = "rename";  // atomic replace on POSIX
    }
    if (!failed.empty()) {
        const std::string reason = ErrnoText();
        ::unlink(tmp.c_str());
        throw StoreError(StoreErrorKind::kTransient, key,
                         failed + " failed for " + tmp.string() + ": " + reason);
    }
    SyncDir(dir, key);  // the rename itself durable
    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& write_bytes = registry.GetCounter("filestore.write_bytes");
    static obs::Histogram& write_seconds =
        registry.GetHistogram("filestore.write_seconds");
    write_bytes.Add(blob.size());
    write_seconds.Observe(NowSeconds() - start);
}

std::optional<Blob>
FileStore::Get(const std::string& key) const {
    const obs::TraceSpan span("filestore.get", "storage");
    const double start = NowSeconds();
    const fs::path path = PathFor(key);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        return std::nullopt;
    }
    auto& registry_for_errors = obs::MetricsRegistry::Instance();
    static obs::Counter& corrupt_reads =
        registry_for_errors.GetCounter("store.corrupt_reads_total");
    const auto total = static_cast<std::size_t>(in.tellg());
    if (total < kTrailerSize) {
        corrupt_reads.Add();  // too short to end in the tag
        throw BlobFormatError(key, path.string());
    }
    Blob blob(total - kTrailerSize);
    std::uint32_t trailer[2] = {0, 0};
    in.seekg(0);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    in.read(reinterpret_cast<char*>(trailer), sizeof(trailer));
    if (!in) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "read failed for " + path.string());
    }
    if (trailer[1] != kFormatTag) {
        corrupt_reads.Add();
        throw BlobFormatError(key, path.string());
    }
    if (Crc32c(blob.data(), blob.size()) != trailer[0]) {
        corrupt_reads.Add();
        throw StoreError(StoreErrorKind::kCorrupt, key,
                         "CRC mismatch (torn write?) in " + path.string());
    }
    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& read_bytes = registry.GetCounter("filestore.read_bytes");
    static obs::Histogram& read_seconds =
        registry.GetHistogram("filestore.read_seconds");
    read_bytes.Add(blob.size());
    read_seconds.Observe(NowSeconds() - start);
    return blob;
}

bool
FileStore::Contains(const std::string& key) const {
    const fs::path path = PathFor(key);
    return fs::exists(path);
}

void
FileStore::Erase(const std::string& key) {
    fs::path path = PathFor(key);
    std::error_code ec;
    if (!fs::remove(path, ec)) {
        return;
    }
    // Remove each directory the key's segments made while it is empty.
    // rmdir fails on a non-empty directory, so a concurrent Put's temp
    // file keeps its directory; a Put that loses the race re-creates it.
    for (auto depth = std::count(key.begin(), key.end(), '/'); depth > 0;
         --depth) {
        path = path.parent_path();
        if (::rmdir(path.c_str()) != 0) {
            break;
        }
    }
}

std::vector<std::string>
FileStore::Keys() const {
    std::vector<std::string> keys;
    WalkFiles(root_, [&keys](const fs::directory_entry&, const std::string& rel) {
        if (EndsWith(rel, kFileSuffix)) {
            keys.push_back(rel.substr(0, rel.size() - (sizeof(kFileSuffix) - 1)));
        }
    });
    std::sort(keys.begin(), keys.end());
    return keys;
}

Bytes
FileStore::TotalBytes() const {
    Bytes total = 0;
    WalkFiles(root_, [&total](const fs::directory_entry& entry,
                              const std::string& rel) {
        std::error_code ec;
        const std::uintmax_t size = entry.file_size(ec);
        if (!ec && EndsWith(rel, kFileSuffix)) {
            total += size >= kTrailerSize ? size - kTrailerSize : 0;
        }
    });
    return total;
}

std::size_t
FileStore::Count() const {
    return Keys().size();
}

std::vector<FileStore::TempFile>
FileStore::TempFiles() const {
    std::vector<TempFile> temps;
    WalkFiles(root_, [&temps](const fs::directory_entry& entry,
                              const std::string&) {
        const std::string name = entry.path().filename().string();
        if (name.find(kTempInfix) == std::string::npos ||
            EndsWith(name, kFileSuffix)) {
            return;
        }
        std::error_code ec;
        const std::uintmax_t size = entry.file_size(ec);
        if (!ec) {
            temps.push_back(TempFile{entry.path(), size});
        }
    });
    std::sort(temps.begin(), temps.end(),
              [](const TempFile& a, const TempFile& b) { return a.path < b.path; });
    return temps;
}

}  // namespace moc
