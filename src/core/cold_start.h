#ifndef MOC_CORE_COLD_START_H_
#define MOC_CORE_COLD_START_H_

/**
 * @file
 * Cold-start restore: bring a fresh process's model back from a persistent
 * checkpoint store (the O_restart path of Eq. 3 — the job was killed and
 * rescheduled, so no in-memory snapshots survive anywhere).
 *
 * Under PEC the store holds each expert at the iteration it was last
 * persisted; the non-expert units and "extra" state define the restart
 * point. Cold start loads the freshest persisted version of every unit,
 * exactly like two-level recovery with an empty memory level.
 */

#include "core/moc_system.h"
#include "storage/object_store.h"

namespace moc {

/** What a cold start restored. */
struct ColdStartReport {
    /** Training state at the restart point. */
    ExtraState extra;
    /** Units restored (weight + optimizer blobs). */
    std::size_t keys_restored = 0;
    Bytes bytes_read = 0;
    /** Units the manifest never recorded, left at their fresh-init values. */
    std::vector<std::string> missing;
    /** Units restored from an older verified version. */
    std::vector<DegradedKey> degraded;
    /** The checkpoint generation restored. */
    std::size_t generation = 0;
};

/**
 * Restores @p model (weights and Adam moments) from @p store through the
 * manifest the store carries under kManifestKey: the manifest-aware
 * overload below, with the store's own integrity record.
 *
 * @throws std::invalid_argument if the store has no manifest (not a MoC
 *         checkpoint store) or it does not parse; StoreError{kCorrupt} when
 *         no generation can be restored.
 */
ColdStartReport ColdStartFromStore(ParamSource& model, const ObjectStore& store);

/**
 * Manifest-aware cold start: restores from the newest eligible checkpoint
 * generation, CRC-verifying every blob (the single `gen/<iter>/<key>` copy
 * of each version) against the manifest record and walking each key's
 * verified-version fallback chain when the preferred version is damaged.
 * Units the manifest never recorded are listed in `missing` and keep their
 * constructor values; keys restored below the planned iteration are listed
 * in `degraded`; generations whose non-expert or extra state cannot be
 * verified are skipped entirely.
 *
 * @throws StoreError{kCorrupt} when no generation can be restored.
 */
ColdStartReport ColdStartFromStore(ParamSource& model, const ObjectStore& store,
                                   const CheckpointManifest& manifest);

/**
 * Copies every key of @p src into @p dst (checkpoint export/import, e.g.
 * simulated PersistentStore -> on-disk FileStore). Returns bytes copied.
 */
Bytes CopyStore(const ObjectStore& src, ObjectStore& dst);

}  // namespace moc

#endif  // MOC_CORE_COLD_START_H_
