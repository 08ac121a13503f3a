/**
 * @file
 * `moc_cli fsck`: scrubs a FileStore checkpoint directory against its own
 * manifest (`meta/manifest`, format moc-manifest/1). Three passes:
 *
 *   1. physical — every stored file is read back through its CRC-32C
 *      trailer, so torn writes and bit rot surface as damaged files. A
 *      file whose trailer lacks the current format tag (written by an
 *      older build, or with a damaged trailer) is damaged and is also
 *      listed as a format error;
 *   2. logical — every persist version the manifest records is located
 *      (versioned shard key `<key>@<iter>` at its physical iteration —
 *      dedup refs resolved — or the `gen/<iter>/<key>` copy) and its
 *      bytes re-hashed against the recorded CRC. A *delta* version
 *      (`<key>@<iter>.delta`, storage/delta_codec.h) is intact only when
 *      its physical record matches its recorded delta CRC AND every link
 *      below it — base versions down to a full write — is intact: a
 *      damaged or missing base breaks the whole dependent chain, and each
 *      dependent is reported as a broken chain link so the operator can
 *      tell "this file rotted" from "this file is fine but
 *      unreconstructable";
 *   3. restartability — per sealed generation, checks that the extra state
 *      and every non-expert shard are intact at exactly that iteration and
 *      every expert shard at some iteration at or below it (PEC carries
 *      unselected experts forward). An *unsealed* generation with recorded
 *      shards is a torn checkpoint event: the directory is classified
 *      repairable (never clean) while one exists, since restart must fall
 *      back past it. A generation the coordinator *aborted* (elastic
 *      membership: a rank died mid-barrier and the run moved on) is an
 *      acknowledged casualty, not a torn one — it never dirties the
 *      directory;
 *   4. membership — when the elastic coordinator persisted its membership
 *      table (`meta/membership`, format moc-membership/1), each generation's
 *      referenced ranks (the `rank<r>/` key prefixes it recorded) are
 *      checked against *current* live membership. A generation referencing
 *      an evicted rank is classified orphaned: still restartable, but only
 *      through a rank remap (core/placement.h), so the directory is not
 *      clean.
 *
 * The scrub also counts Put temp files (`*.blob.tmp.*`) a crashed writer left
 * behind. They are reported, not damage: they never change the exit code,
 * and fsck does not delete them, since a temp file may belong to a Put
 * still in flight in another process sharing the directory.
 *
 * Exit codes: 0 = clean; 1 = damage, a torn generation, or an orphaned
 * generation found but at least one generation is still restartable
 * (repairable — recovery will degrade or remap, not die); 2 = fatal (no
 * restartable generation, or the manifest itself is unreadable alongside
 * damage). `--json <path>` writes a moc-fsck/1 document listing every
 * damaged file, format error, torn/aborted generation, and orphaned
 * generation so CI can assert detection coverage.
 */

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/membership.h"
#include "cli_lib.h"
#include "core/moc_system.h"
#include "obs/export.h"
#include "storage/delta_codec.h"
#include "storage/file_store.h"
#include "storage/manifest.h"
#include "storage/store_error.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/table.h"

namespace moc::cli {

namespace {

/** One physical key's scrub outcome. */
struct FileHealth {
    bool readable = false;
    /** Payload bytes (without the CRC trailer) when readable. */
    Bytes bytes = 0;
    std::uint32_t crc = 0;
    /** What Get() reported when unreadable. */
    std::string error;
    /** Unreadable because the file is not in FileStore::kFormatName. */
    bool format_error = false;
};

/** Reads every physical key once, classifying damage by typed kind. */
std::map<std::string, FileHealth>
ScrubFiles(const FileStore& store) {
    std::map<std::string, FileHealth> health;
    for (const auto& key : store.Keys()) {
        FileHealth h;
        try {
            if (const auto blob = store.Get(key)) {
                h.readable = true;
                h.bytes = blob->size();
                h.crc = Crc32c(blob->data(), blob->size());
            } else {
                h.error = "missing";
            }
        } catch (const BlobFormatError& e) {
            h.error = std::string("format: ") + e.what();
            h.format_error = true;
        } catch (const StoreError& e) {
            h.error = std::string(StoreErrorKindName(e.kind())) + ": " +
                      e.what();
        }
        health.emplace(key, std::move(h));
    }
    return health;
}

/** Depth guard for ref/delta chain walks (matches cluster_recovery). */
constexpr std::size_t kMaxChainDepth = 64;

/** True when the delta *record* of @p version is on disk and CRC-matches
    its recorded physical identity (says nothing about the chain below). */
bool
DeltaRecordIntact(const std::map<std::string, FileHealth>& files,
                  const std::string& key, const PersistVersion& version) {
    const auto it = files.find(DeltaShardKey(key, version.iteration));
    return it != files.end() && it->second.readable &&
           it->second.bytes == version.delta_bytes &&
           it->second.crc == version.delta_crc;
}

/**
 * True when (@p key, @p version) is reconstructable from disk: full
 * versions need an intact copy of their blob; dedup refs resolve to the
 * referenced version; delta versions need their own record intact AND the
 * whole chain below them intact, down to a full write.
 */
bool
VersionIntact(const std::map<std::string, FileHealth>& files,
              const CheckpointManifest& manifest, const std::string& key,
              const PersistVersion& version, std::size_t depth = 0) {
    if (depth >= kMaxChainDepth) {
        return false;
    }
    if (version.is_delta()) {
        if (!DeltaRecordIntact(files, key, version)) {
            return false;
        }
        const auto base = manifest.FindPersistVersion(key, *version.delta_base);
        return base.has_value() &&
               VersionIntact(files, manifest, key, *base, depth + 1);
    }
    if (version.ref.has_value()) {
        // A ref may point at a delta version (content unchanged since a
        // delta write): resolve through the manifest so the chain below it
        // is verified too, not just the record's file.
        const auto base = manifest.FindPersistVersion(key, *version.ref);
        if (base.has_value() && base->is_delta()) {
            return VersionIntact(files, manifest, key, *base, depth + 1);
        }
    }
    // Dedup-by-reference versions wrote no bytes of their own: the physical
    // blob lives at the referenced iteration (PhysicalIteration).
    const std::string candidates[] = {
        VersionedShardKey(key, version.PhysicalIteration()),
        MocCheckpointSystem::GenKey(version.PhysicalIteration(), key),
        MocCheckpointSystem::GenKey(version.iteration, key)};
    for (const auto& physical : candidates) {
        const auto it = files.find(physical);
        if (it == files.end() || !it->second.readable) {
            continue;
        }
        if (it->second.bytes != version.bytes) {
            continue;
        }
        if (version.crc != 0 && it->second.crc != version.crc) {
            continue;
        }
        return true;
    }
    return false;
}

/** Expert shards carry forward across generations; others do not. */
bool
IsExpertKey(const std::string& key) {
    return key.find("/expert/") != std::string::npos;
}

/** A manifest-recorded version found damaged or missing on disk. */
struct MissingVersion {
    std::string key;
    std::size_t iteration = 0;
    /** The version's own record is fine; a base below it in its delta
        chain is damaged or missing, so it cannot be reconstructed. */
    bool chain_break = false;
    /** Base iteration of the first broken link (chain breaks only). */
    std::size_t base = 0;
};

/** The rank a `rank<r>/...` shard key belongs to, or nullopt. */
std::optional<std::size_t>
KeyRank(const std::string& key) {
    if (key.rfind("rank", 0) != 0) {
        return std::nullopt;
    }
    std::size_t pos = 4;
    std::size_t rank = 0;
    bool any = false;
    while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
        rank = rank * 10 + static_cast<std::size_t>(key[pos] - '0');
        ++pos;
        any = true;
    }
    if (!any || pos >= key.size() || key[pos] != '/') {
        return std::nullopt;
    }
    return rank;
}

}  // namespace

int
RunFsck(const Args& args, std::ostream& out) {
    if (args.positional.empty()) {
        out << "usage: moc_cli fsck <ckpt-dir> [--json <path>]\n";
        return 2;
    }
    const std::string root = args.positional.front();
    // FileStore's constructor creates missing directories, which would turn
    // a typo'd path into a silently "clean" empty scrub.
    if (!std::filesystem::is_directory(root)) {
        out << "error: '" << root << "' is not a directory\n";
        return 2;
    }
    const FileStore store(root);
    const auto files = ScrubFiles(store);
    std::uintmax_t temp_bytes = 0;
    const auto temps = store.TempFiles();
    for (const auto& temp : temps) {
        temp_bytes += temp.bytes;
    }

    std::vector<std::string> damaged_files;
    std::vector<std::string> format_errors;
    for (const auto& [key, health] : files) {
        if (!health.readable) {
            damaged_files.push_back(key);
        }
        if (health.format_error) {
            format_errors.push_back(key);
        }
    }

    // Without a parseable manifest we can only report physical damage.
    CheckpointManifest manifest;
    bool have_manifest = false;
    std::string manifest_error;
    {
        const auto it = files.find(kManifestKey);
        if (it == files.end()) {
            manifest_error = std::string(kManifestKey) + " not found";
        } else if (!it->second.readable) {
            manifest_error = std::string(kManifestKey) + " unreadable (" +
                             it->second.error + ")";
        } else {
            try {
                const auto blob = store.Get(kManifestKey);
                manifest.LoadFromJson(
                    std::string(blob->begin(), blob->end()));
                have_manifest = true;
            } catch (const std::exception& e) {
                manifest_error = e.what();
            }
        }
    }

    // The elastic coordinator persists its membership table next to the
    // manifest; without one (pre-elastic run) the membership pass is
    // skipped entirely.
    std::optional<ckpt::MembershipSnapshot> membership;
    {
        const auto it = files.find(ckpt::kMembershipKey);
        if (it != files.end() && it->second.readable) {
            try {
                const auto blob = store.Get(ckpt::kMembershipKey);
                membership = ckpt::ParseMembershipJson(
                    std::string(blob->begin(), blob->end()));
            } catch (const std::exception&) {
                // Torn membership doc: skip the pass, the scrub already
                // reported the damage if the file failed its CRC.
            }
        }
    }

    std::vector<MissingVersion> missing;
    struct GenHealth {
        GenerationInfo info;
        bool restartable = false;
        /** Ranks this generation references that are no longer live. */
        std::vector<std::size_t> orphan_ranks;
    };
    std::vector<GenHealth> generations;
    std::vector<std::size_t> restartable;
    std::vector<std::size_t> torn;
    std::vector<std::size_t> aborted;
    std::vector<std::size_t> orphaned;
    if (have_manifest) {
        const auto keys = manifest.KeysAt(StoreLevel::kPersist);
        // Logical pass: every usable version the manifest records must have
        // an intact copy; versions the manifest already knows are damaged
        // (unverified or marked corrupt) are not re-counted.
        std::map<std::string, std::vector<PersistVersion>> chains;
        for (const auto& key : keys) {
            auto chain = manifest.PersistFallbackChain(
                key, static_cast<std::size_t>(-1));
            for (const auto& version : chain) {
                if (!VersionIntact(files, manifest, key, version)) {
                    MissingVersion mv{key, version.iteration, false, 0};
                    // A delta whose own record is intact failed only
                    // because of the chain below it: a repairable class of
                    // its own — re-persisting the base (or a forced full
                    // write) brings every dependent back.
                    if (version.is_delta() &&
                        DeltaRecordIntact(files, key, version)) {
                        mv.chain_break = true;
                        mv.base = *version.delta_base;
                    }
                    missing.push_back(std::move(mv));
                }
            }
            chains.emplace(key, std::move(chain));
        }
        const auto damaged = [&](const std::string& key, std::size_t iter) {
            for (const auto& mv : missing) {
                if (mv.key == key && mv.iteration == iter) {
                    return true;
                }
            }
            return false;
        };
        // Restartability pass, per sealed generation. An unsealed
        // generation with recorded shards is *torn* — a checkpoint event
        // that died mid-persist. Its shards may all be individually intact,
        // but the set is incomplete by definition, so the directory is
        // never "clean" while one exists (recovery must fall back).
        std::set<std::size_t> live_ranks;
        if (membership) {
            const auto live = membership->LiveRanks();
            live_ranks.insert(live.begin(), live.end());
        }
        for (const auto& info : manifest.Generations()) {
            if (!info.sealed && info.shards > 0 && !info.aborted) {
                torn.push_back(info.iteration);
            }
            if (info.aborted) {
                aborted.push_back(info.iteration);
            }
            GenHealth gen{info, info.sealed && !info.marked_corrupt, {}};
            if (membership && gen.restartable) {
                // Membership pass: a sealed generation that recorded shards
                // for a rank no longer live can only restore through a
                // remap — flag it so operators know plain restart is gone.
                std::set<std::size_t> refs;
                for (const auto& [key, chain] : chains) {
                    for (const auto& version : chain) {
                        if (version.iteration == info.iteration) {
                            if (const auto rank = KeyRank(key)) {
                                refs.insert(*rank);
                            }
                        }
                    }
                }
                for (const std::size_t rank : refs) {
                    if (live_ranks.count(rank) == 0) {
                        gen.orphan_ranks.push_back(rank);
                    }
                }
                if (!gen.orphan_ranks.empty()) {
                    orphaned.push_back(info.iteration);
                }
            }
            if (gen.restartable) {
                for (const auto& [key, chain] : chains) {
                    bool ok = false;
                    for (const auto& version : chain) {
                        if (version.iteration > info.iteration ||
                            damaged(key, version.iteration)) {
                            continue;
                        }
                        // Non-expert shards (and extra state) must be from
                        // this very generation; experts may carry forward.
                        ok = IsExpertKey(key) ||
                             version.iteration == info.iteration;
                        break;
                    }
                    if (!ok) {
                        gen.restartable = false;
                        break;
                    }
                }
            }
            if (gen.restartable) {
                restartable.push_back(info.iteration);
            }
            generations.push_back(gen);
        }
    }

    const bool damage = !damaged_files.empty() || !missing.empty();
    int code = 0;
    if (!have_manifest) {
        code = damage ? 1 : 0;
    } else if (damage || !torn.empty() || !orphaned.empty()) {
        code = restartable.empty() ? 2 : 1;
    } else if (restartable.empty() && !generations.empty()) {
        code = 2;
    }

    out << "fsck " << root << ": " << files.size() << " files, "
        << damaged_files.size() << " damaged\n";
    if (!format_errors.empty()) {
        out << "note: " << format_errors.size() << " file(s) not in "
            << FileStore::kFormatName
            << " format (older build or damaged trailer); this build does "
               "not read them\n";
    }
    if (!have_manifest) {
        out << "warning: no usable manifest (" << manifest_error
            << ") — physical scrub only\n";
    }
    if (!temps.empty()) {
        out << "note: " << temps.size() << " stale temp file(s), "
            << temp_bytes
            << " bytes, left by interrupted writes (not damage; delete them "
               "once no writer uses the directory)\n";
    }
    for (const auto& key : damaged_files) {
        out << "  damaged file: " << key << " (" << files.at(key).error
            << ")\n";
    }
    for (const auto& mv : missing) {
        if (mv.chain_break) {
            out << "  broken delta chain: " << mv.key << " @" << mv.iteration
                << " (record intact; base @" << mv.base
                << " unreconstructable)\n";
        } else {
            out << "  missing version: " << mv.key << " @" << mv.iteration
                << "\n";
        }
    }
    for (const auto iteration : torn) {
        out << "  torn generation: " << iteration
            << " (unsealed; checkpoint event died mid-persist)\n";
    }
    for (const auto iteration : aborted) {
        out << "  aborted generation: " << iteration
            << " (coordinator abandoned it on a membership change; "
               "acknowledged, not torn)\n";
    }
    for (const auto& gen : generations) {
        for (const std::size_t rank : gen.orphan_ranks) {
            out << "  orphaned generation: " << gen.info.iteration
                << " references rank " << rank
                << " absent from live membership (restore needs a remap)\n";
        }
    }
    if (have_manifest) {
        Table t({"generation", "shards", "sealed", "restartable", "note"});
        for (const auto& gen : generations) {
            std::string note;
            if (gen.info.aborted) {
                note = "aborted";
            } else if (!gen.orphan_ranks.empty()) {
                note = "orphaned (" + std::to_string(gen.orphan_ranks.size())
                       + " evicted rank(s))";
            }
            t.AddRow({std::to_string(gen.info.iteration),
                      std::to_string(gen.info.shards),
                      gen.info.sealed ? "yes" : "no",
                      gen.restartable ? "yes" : "no", note});
        }
        out << t.ToString();
        if (membership) {
            out << "membership: v" << membership->version << ", "
                << membership->LiveRanks().size() << "/"
                << membership->members.size() << " live\n";
        }
        if (restartable.empty()) {
            out << "FATAL: no restartable generation\n";
        } else if (damage || !torn.empty() || !orphaned.empty()) {
            out << "repairable: restart will degrade to generation "
                << restartable.back() << "\n";
        } else {
            out << "clean: " << restartable.size()
                << " restartable generation(s), newest "
                << restartable.back() << "\n";
        }
    }

    const std::string json_path = args.Get("json", "");
    if (!json_path.empty()) {
        json::Writer j;
        j.BeginObject().Field("format", "moc-fsck/1").Field("root", root)
            .Field("exit_code", code).Field("files", files.size())
            .Field("stale_temp_files", temps.size())
            .Field("stale_temp_bytes", temp_bytes)
            .Field("have_manifest", have_manifest)
            .Field("damaged_files", damaged_files)
            .Field("format_errors", format_errors)
            .Key("missing_versions").BeginArray();
        for (const auto& mv : missing) {
            j.BeginObject().Field("key", mv.key)
                .Field("iteration", mv.iteration).EndObject();
        }
        j.EndArray().Key("delta_chain_breaks").BeginArray();
        for (const auto& mv : missing) {
            if (mv.chain_break) {
                j.BeginObject().Field("key", mv.key)
                    .Field("iteration", mv.iteration).Field("base", mv.base)
                    .EndObject();
            }
        }
        j.EndArray().Field("torn_generations", torn)
            .Field("aborted_generations", aborted)
            .Field("orphaned_generations", orphaned)
            .Field("membership_live_ranks",
                   membership ? membership->LiveRanks().size() : 0)
            .Field("have_membership", membership.has_value())
            .Field("restartable_generations", restartable).EndObject()
            .EndLine();
        if (!obs::WriteTextFile(json_path, j.str(), "fsck report")) {
            out << "warning: cannot write " << json_path << "\n";
        }
    }
    return code;
}

}  // namespace moc::cli
