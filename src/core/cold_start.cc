#include "core/cold_start.h"

#include "storage/store_error.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

/** Reads one manifest-recorded version from @p store, CRC-verified. */
std::optional<Blob>
ReadVerified(const ObjectStore& store, const std::string& key,
             const PersistVersion& version) {
    try {
        auto blob = store.Get(MocCheckpointSystem::GenKey(version.iteration, key));
        if (blob.has_value() &&
            Crc32c(blob->data(), blob->size()) == version.crc) {
            return blob;
        }
    } catch (const std::runtime_error&) {
        // Typed corruption from the backend: the version is unusable.
    }
    return std::nullopt;
}

}  // namespace

ColdStartReport
ColdStartFromStore(ParamSource& model, const ObjectStore& store) {
    const auto manifest_blob = store.Get(kManifestKey);
    MOC_CHECK_ARG(manifest_blob.has_value(), "store has no "
                                                 << kManifestKey
                                                 << ": not a MoC checkpoint store");
    CheckpointManifest manifest;
    manifest.LoadFromJson(std::string(manifest_blob->begin(), manifest_blob->end()));
    return ColdStartFromStore(model, store, manifest);
}

ColdStartReport
ColdStartFromStore(ParamSource& model, const ObjectStore& store,
                   const CheckpointManifest& manifest) {
    for (const std::size_t generation : manifest.EligibleGenerations()) {
        ColdStartReport report;
        report.generation = generation;
        // "Extra" state defines the restart point; it must come from this
        // generation exactly or the generation is unusable.
        const auto extra_chain =
            manifest.PersistFallbackChain("extra/state", generation);
        if (extra_chain.empty() ||
            extra_chain.front().iteration != generation) {
            continue;
        }
        const auto extra_blob =
            ReadVerified(store, "extra/state", extra_chain.front());
        if (!extra_blob.has_value()) {
            continue;
        }
        report.extra = DeserializeExtraState(*extra_blob);

        bool generation_ok = true;
        for (auto& group : model.ParameterGroups()) {
            const bool is_expert = group.kind == ModuleKind::kExpert;
            for (const bool weights : {true, false}) {
                const std::string key = group.key + (weights ? "/w" : "/o");
                const auto chain =
                    manifest.PersistFallbackChain(key, generation);
                if (chain.empty()) {
                    report.missing.push_back(key);
                    continue;
                }
                std::optional<Blob> blob;
                std::size_t got = chain.front().iteration;
                for (const auto& version : chain) {
                    blob = ReadVerified(store, key, version);
                    if (blob.has_value()) {
                        got = version.iteration;
                        break;
                    }
                }
                if (!blob.has_value() ||
                    (!is_expert && got != extra_chain.front().iteration)) {
                    generation_ok = false;
                    break;
                }
                if (got != chain.front().iteration) {
                    report.degraded.push_back(
                        {key, chain.front().iteration, got,
                         "corrupt shard; restored older verified version"});
                }
                DeserializeParamList(*blob, group.params, weights);
                ++report.keys_restored;
                report.bytes_read += blob->size();
            }
            if (!generation_ok) {
                break;
            }
        }
        if (generation_ok) {
            return report;
        }
        MOC_WARN << "cold start: generation " << generation
                 << " unusable; trying an older one";
    }
    throw StoreError(StoreErrorKind::kCorrupt, kManifestKey,
                     "no checkpoint generation in this store can be "
                     "restored with verification");
}

Bytes
CopyStore(const ObjectStore& src, ObjectStore& dst) {
    Bytes copied = 0;
    for (const auto& key : src.Keys()) {
        auto blob = src.Get(key);
        MOC_ASSERT(blob.has_value(), "key vanished during copy: " << key);
        copied += blob->size();
        dst.Put(key, std::move(*blob));
    }
    return copied;
}

}  // namespace moc
