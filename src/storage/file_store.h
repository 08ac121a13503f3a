#ifndef MOC_STORAGE_FILE_STORE_H_
#define MOC_STORAGE_FILE_STORE_H_

/**
 * @file
 * A real on-disk persistent store: the production counterpart of the
 * simulated PersistentStore. Each key maps to one file under a root
 * directory ("/" in keys becomes a subdirectory), written atomically
 * (temp file + rename) with a CRC32 trailer so torn writes are detected on
 * read. Useful when the library is embedded in an actual training job
 * rather than an experiment harness.
 *
 * The store holds no lock: Put, Get and Erase are safe to call concurrently
 * on any keys, from threads or processes sharing the root. Each Put writes
 * a temp file of its own, `<key>.blob.tmp.<pid>.<seq>`, and renames it over
 * the key, so concurrent Puts of one key each land a complete file (the
 * last rename wins) and a Get sees one whole version, never a mix.
 */

#include <filesystem>
#include <string>

#include "storage/object_store.h"

namespace moc {

/**
 * Durable file-backed key-value store.
 *
 * Keys must be non-empty, use '/' as the only separator, and contain no
 * "." or ".." segments (validated on every call).
 */
class FileStore final : public ObjectStore {
  public:
    /**
     * Opens (creating if needed) the store rooted at @p root.
     * @throws std::invalid_argument if @p root exists and is not a directory.
     */
    explicit FileStore(std::filesystem::path root);

    void Put(const std::string& key, Blob blob) override;
    std::optional<Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override;
    Bytes TotalBytes() const override;
    std::size_t Count() const override;

    /** A temp file left by a Put that has not renamed it (yet). */
    struct TempFile {
        std::filesystem::path path;
        std::uintmax_t bytes = 0;
    };

    /**
     * Every Put temp file under the root. A process that dies mid-Put
     * leaves its temp file behind; the store never deletes one itself,
     * because ranks of one job share a root and another process's
     * in-flight temp file is not stale. `moc_cli fsck` reports them.
     */
    std::vector<TempFile> TempFiles() const;

    const std::filesystem::path& root() const { return root_; }

  private:
    /** Validates @p key and returns its on-disk path. */
    std::filesystem::path PathFor(const std::string& key) const;

    std::filesystem::path root_;
};

}  // namespace moc

#endif  // MOC_STORAGE_FILE_STORE_H_
