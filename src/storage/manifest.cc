#include "storage/manifest.h"

#include <algorithm>
#include <set>

#include "util/json.h"
#include "util/logging.h"

namespace moc {

std::string
VersionedShardKey(const std::string& key, std::size_t iteration) {
    return key + "@" + std::to_string(iteration);
}

void
CheckpointManifest::RecordSave(StoreLevel level, const std::string& key,
                               std::size_t iteration, NodeId node, Bytes bytes,
                               std::uint32_t crc) {
    if (level == StoreLevel::kPersist) {
        RecordPersistVersion(key, iteration, bytes, crc, /*verified=*/true);
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto& replicas = memory_[key];
    auto it = replicas.find(node);
    if (it != replicas.end() && it->second.iteration > iteration) {
        MOC_PANIC("manifest: non-monotonic memory save for key " << key);
    }
    replicas[node] = KeyVersion{iteration, node, bytes, crc};
}

void
CheckpointManifest::RecordPersistVersion(const std::string& key,
                                         std::size_t iteration, Bytes bytes,
                                         std::uint32_t crc, bool verified,
                                         std::optional<std::size_t> ref) {
    MOC_CHECK_ARG(!ref.has_value() || *ref < iteration,
                  "dedup ref must point at an older iteration");
    std::lock_guard<std::mutex> lock(mu_);
    auto& history = persist_[key];
    if (!history.empty() && history.back().iteration > iteration) {
        MOC_PANIC("manifest: non-monotonic persist save for key " << key);
    }
    PersistVersion version;
    version.iteration = iteration;
    version.bytes = bytes;
    version.crc = crc;
    version.verified = verified;
    version.ref = ref;
    if (!history.empty() && history.back().iteration == iteration) {
        history.back() = version;  // same-checkpoint re-record replaces
    } else {
        history.push_back(version);
    }
    generations_.try_emplace(iteration);
}

void
CheckpointManifest::RecordPersistDelta(const std::string& key,
                                       std::size_t iteration, Bytes bytes,
                                       std::uint32_t crc, bool verified,
                                       std::size_t delta_base,
                                       Bytes delta_bytes,
                                       std::uint32_t delta_crc) {
    MOC_CHECK_ARG(delta_base < iteration,
                  "delta base must be an older iteration");
    std::lock_guard<std::mutex> lock(mu_);
    auto& history = persist_[key];
    if (!history.empty() && history.back().iteration > iteration) {
        MOC_PANIC("manifest: non-monotonic persist save for key " << key);
    }
    PersistVersion version;
    version.iteration = iteration;
    version.bytes = bytes;
    version.crc = crc;
    version.verified = verified;
    version.delta_base = delta_base;
    version.delta_bytes = delta_bytes;
    version.delta_crc = delta_crc;
    if (!history.empty() && history.back().iteration == iteration) {
        history.back() = version;
    } else {
        history.push_back(version);
    }
    generations_.try_emplace(iteration);
}

std::optional<PersistVersion>
CheckpointManifest::FindPersistVersion(const std::string& key,
                                       std::size_t iteration) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = persist_.find(key);
    if (it == persist_.end()) {
        return std::nullopt;
    }
    for (const auto& version : it->second) {
        if (version.iteration == iteration) {
            return version;
        }
    }
    return std::nullopt;
}

std::optional<KeyVersion>
CheckpointManifest::Latest(StoreLevel level, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (level == StoreLevel::kMemory) {
        auto it = memory_.find(key);
        if (it == memory_.end() || it->second.empty()) {
            return std::nullopt;
        }
        const KeyVersion* best = nullptr;
        for (const auto& [node, version] : it->second) {
            if (best == nullptr || version.iteration > best->iteration) {
                best = &version;
            }
        }
        return *best;
    }
    auto it = persist_.find(key);
    if (it == persist_.end()) {
        return std::nullopt;
    }
    for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
        if (!v->corrupt) {
            return KeyVersion{v->iteration, 0, v->bytes, v->crc};
        }
    }
    return std::nullopt;
}

std::optional<KeyVersion>
CheckpointManifest::LatestMemoryAmong(const std::string& key,
                                      const std::vector<NodeId>& nodes) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memory_.find(key);
    if (it == memory_.end()) {
        return std::nullopt;
    }
    const KeyVersion* best = nullptr;
    for (const NodeId node : nodes) {
        const auto replica = it->second.find(node);
        if (replica == it->second.end()) {
            continue;
        }
        if (best == nullptr || replica->second.iteration > best->iteration) {
            best = &replica->second;
        }
    }
    if (best == nullptr) {
        return std::nullopt;
    }
    return *best;
}

std::vector<PersistVersion>
CheckpointManifest::PersistFallbackChain(const std::string& key,
                                         std::size_t max_iteration) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PersistVersion> chain;
    auto it = persist_.find(key);
    if (it == persist_.end()) {
        return chain;
    }
    for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
        if (v->iteration <= max_iteration && v->verified && !v->corrupt) {
            chain.push_back(*v);
        }
    }
    return chain;
}

void
CheckpointManifest::MarkPersistCorrupt(const std::string& key,
                                       std::size_t iteration) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = persist_.find(key);
    if (it == persist_.end()) {
        return;
    }
    for (auto& version : it->second) {
        if (version.iteration == iteration) {
            version.corrupt = true;
        }
    }
}

void
CheckpointManifest::MarkGenerationCorrupt(std::size_t iteration) {
    std::lock_guard<std::mutex> lock(mu_);
    generations_[iteration].corrupt = true;
}

void
CheckpointManifest::MarkGenerationAborted(std::size_t iteration) {
    std::lock_guard<std::mutex> lock(mu_);
    generations_[iteration].aborted = true;
}

void
CheckpointManifest::DropNodeMemory(NodeId node) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = memory_.begin(); it != memory_.end();) {
        it->second.erase(node);
        if (it->second.empty()) {
            it = memory_.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<std::string>
CheckpointManifest::KeysAt(StoreLevel level) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> keys;
    if (level == StoreLevel::kMemory) {
        keys.reserve(memory_.size());
        for (const auto& [key, replicas] : memory_) {
            keys.push_back(key);
        }
    } else {
        keys.reserve(persist_.size());
        for (const auto& [key, history] : persist_) {
            if (!history.empty()) {
                keys.push_back(key);
            }
        }
    }
    return keys;
}

void
CheckpointManifest::MarkCheckpointComplete(StoreLevel level, std::size_t iteration) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = level == StoreLevel::kMemory ? memory_complete_ : persist_complete_;
    slot = iteration;
    if (level == StoreLevel::kPersist) {
        generations_[iteration].sealed = true;
    }
}

std::optional<std::size_t>
CheckpointManifest::LastCompleteIteration(StoreLevel level) const {
    std::lock_guard<std::mutex> lock(mu_);
    return level == StoreLevel::kMemory ? memory_complete_ : persist_complete_;
}

GenerationInfo
CheckpointManifest::GenerationInfoLocked(std::size_t iteration,
                                         const GenerationState& state) const {
    GenerationInfo info;
    info.iteration = iteration;
    info.sealed = state.sealed;
    info.marked_corrupt = state.corrupt;
    info.aborted = state.aborted;
    for (const auto& [key, history] : persist_) {
        for (const auto& version : history) {
            if (version.iteration != iteration) {
                continue;
            }
            ++info.shards;
            if (version.verified) {
                ++info.verified_shards;
            }
            if (version.corrupt) {
                ++info.corrupt_shards;
            }
        }
    }
    info.eligible = info.sealed && !info.marked_corrupt && !info.aborted &&
                    info.corrupt_shards == 0 &&
                    info.verified_shards == info.shards;
    return info;
}

std::vector<GenerationInfo>
CheckpointManifest::Generations() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<GenerationInfo> infos;
    infos.reserve(generations_.size());
    for (const auto& [iteration, state] : generations_) {
        infos.push_back(GenerationInfoLocked(iteration, state));
    }
    return infos;
}

std::vector<std::size_t>
CheckpointManifest::EligibleGenerations() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::size_t> eligible;
    for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
        if (GenerationInfoLocked(it->first, it->second).eligible) {
            eligible.push_back(it->first);
        }
    }
    return eligible;
}

std::optional<std::size_t>
CheckpointManifest::LatestEligibleGeneration() const {
    const auto eligible = EligibleGenerations();
    if (eligible.empty()) {
        return std::nullopt;
    }
    return eligible.front();
}

std::vector<std::pair<std::string, std::size_t>>
CheckpointManifest::PrunePersistGenerations(std::size_t keep_generations) {
    MOC_CHECK_ARG(keep_generations >= 1, "must keep at least one generation");
    const auto eligible = EligibleGenerations();  // newest first
    if (eligible.size() <= keep_generations) {
        return {};
    }
    const std::size_t cutoff = eligible[keep_generations - 1];
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::size_t>> pruned;
    for (auto& [key, history] : persist_) {
        // The newest usable version at or below the cutoff still backs the
        // oldest kept generation (PEC: unselected experts carry forward).
        std::optional<std::size_t> needed;
        for (auto v = history.rbegin(); v != history.rend(); ++v) {
            if (v->iteration <= cutoff && v->verified && !v->corrupt) {
                needed = v->iteration;
                break;
            }
        }
        // A kept version that is a delta (or a dedup ref) is only usable
        // while its base chain survives: close the kept set over delta_base
        // and ref edges before pruning, or reclamation would strand every
        // chain whose full write predates the cutoff.
        std::set<std::size_t> kept;
        for (const auto& v : history) {
            if (v.iteration >= cutoff ||
                (needed.has_value() && v.iteration == *needed)) {
                kept.insert(v.iteration);
            }
        }
        bool grew = true;
        while (grew) {
            grew = false;
            for (const auto& v : history) {
                if (kept.count(v.iteration) == 0) {
                    continue;
                }
                for (const std::optional<std::size_t>& dep :
                     {v.delta_base, v.ref}) {
                    if (dep.has_value() && kept.insert(*dep).second) {
                        grew = true;
                    }
                }
            }
        }
        auto keep = [&](const PersistVersion& v) {
            return kept.count(v.iteration) != 0;
        };
        for (const auto& version : history) {
            if (!keep(version)) {
                pruned.emplace_back(key, version.iteration);
            }
        }
        history.erase(std::remove_if(history.begin(), history.end(),
                                     [&](const PersistVersion& v) {
                                         return !keep(v);
                                     }),
                      history.end());
    }
    // Generations below the cutoff are no longer restart candidates, even
    // when carried-forward versions from them survive: their full shard
    // sets are gone.
    generations_.erase(generations_.begin(), generations_.lower_bound(cutoff));
    return pruned;
}

std::string
CheckpointManifest::ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    json::Writer w;
    w.BeginObject().Field("format", "moc-manifest/1");
    if (persist_complete_.has_value()) {
        w.Field("last_complete", *persist_complete_);
    }
    w.Key("generations").BeginArray();
    for (const auto& [iteration, state] : generations_) {
        w.BeginObject().Field("iteration", iteration)
            .Field("sealed", state.sealed).Field("corrupt", state.corrupt)
            .Field("aborted", state.aborted).EndObject();
    }
    w.EndArray().Key("persist").BeginObject();
    for (const auto& [key, history] : persist_) {
        w.Key(key).BeginArray();
        for (const auto& v : history) {
            w.BeginObject().Field("iteration", v.iteration)
                .Field("bytes", v.bytes).Field("crc", v.crc)
                .Field("verified", v.verified).Field("corrupt", v.corrupt);
            if (v.ref.has_value()) {
                w.Field("ref", *v.ref);
            }
            if (v.delta_base.has_value()) {
                w.Field("delta_base", *v.delta_base)
                    .Field("delta_bytes", v.delta_bytes)
                    .Field("delta_crc", v.delta_crc);
            }
            w.EndObject();
        }
        w.EndArray();
    }
    w.EndObject().EndObject().EndLine();
    return w.Take();
}

void
CheckpointManifest::LoadFromJson(const std::string& text) {
    const json::Value root = json::Parse(text);
    MOC_CHECK_ARG(root.StringOr("format", "") == "moc-manifest/1",
                  "not a moc-manifest/1 document");
    std::map<std::string, std::vector<PersistVersion>> persist;
    std::map<std::size_t, GenerationState> generations;
    std::optional<std::size_t> complete;
    for (const auto& [key, history] : root.At("persist").AsObject()) {
        for (const auto& entry : history.AsArray()) {
            PersistVersion v;
            // AsU64, not AsNumber: iterations and byte counts past 2^53
            // must not round through a double on reload.
            v.iteration =
                static_cast<std::size_t>(entry.At("iteration").AsU64());
            v.bytes = static_cast<Bytes>(entry.At("bytes").AsU64());
            v.crc = static_cast<std::uint32_t>(entry.At("crc").AsU64());
            v.verified = entry.At("verified").AsBool();
            v.corrupt = entry.At("corrupt").AsBool();
            if (const json::Value* ref = entry.Find("ref")) {
                v.ref = static_cast<std::size_t>(ref->AsU64());
            }
            if (const json::Value* base = entry.Find("delta_base")) {
                v.delta_base = static_cast<std::size_t>(base->AsU64());
                v.delta_bytes = static_cast<Bytes>(entry.U64Or("delta_bytes", 0));
                v.delta_crc =
                    static_cast<std::uint32_t>(entry.U64Or("delta_crc", 0));
            }
            persist[key].push_back(v);
        }
        std::sort(persist[key].begin(), persist[key].end(),
                  [](const PersistVersion& a, const PersistVersion& b) {
                      return a.iteration < b.iteration;
                  });
    }
    for (const auto& entry : root.At("generations").AsArray()) {
        const auto iteration =
            static_cast<std::size_t>(entry.At("iteration").AsU64());
        auto& state = generations[iteration];
        state.sealed = entry.At("sealed").AsBool();
        state.corrupt = entry.At("corrupt").AsBool();
        // Absent in pre-elastic documents: those never aborted generations.
        if (const json::Value* aborted = entry.Find("aborted")) {
            state.aborted = aborted->AsBool();
        }
    }
    if (const json::Value* last = root.Find("last_complete")) {
        complete = static_cast<std::size_t>(last->AsU64());
    }
    std::lock_guard<std::mutex> lock(mu_);
    persist_ = std::move(persist);
    generations_ = std::move(generations);
    persist_complete_ = complete;
}

}  // namespace moc
