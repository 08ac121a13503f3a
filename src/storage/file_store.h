#ifndef MOC_STORAGE_FILE_STORE_H_
#define MOC_STORAGE_FILE_STORE_H_

/**
 * @file
 * A real on-disk persistent store: the production counterpart of the
 * simulated PersistentStore. Each key maps to one file under a root
 * directory ("/" in keys becomes a subdirectory), written atomically
 * (temp file + rename) with an 8-byte trailer, [u32 CRC-32C of the blob]
 * [u32 format tag "MOF2"], so torn writes and bit rot are detected on
 * read. The tag sits outside the blob, so a manifest CRC-32C over the blob
 * never runs across the trailer. A file without the tag (the previous
 * format's IEEE CRC-32 trailer, or a damaged one) reads as BlobFormatError.
 * Erase removes the directories a key's segments made once they are empty.
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
#include "storage/store_error.h"

namespace moc {

/**
 * kCorrupt from a file that does not end in the current format tag. fsck
 * reports these separately from CRC damage.
 */
class BlobFormatError final : public StoreError {
  public:
    BlobFormatError(const std::string& key, const std::string& path);
};

/**
 * Durable file-backed key-value store.
 *
 * Keys must be non-empty, use '/' as the only separator, and contain no
 * "." or ".." segments (validated on every call).
 */
class FileStore final : public ObjectStore {
  public:
    /** Name of the on-disk file format, as error messages and fsck say it. */
    static constexpr const char* kFormatName = "moc-file/2";

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
