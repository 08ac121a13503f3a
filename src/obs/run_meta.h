#ifndef MOC_OBS_RUN_META_H_
#define MOC_OBS_RUN_META_H_

/**
 * @file
 * Run metadata embedded in every observability export (metrics JSON,
 * Prometheus text, event journal, Chrome trace) so the `results/` JSON
 * artifacts and `moc_cli report` inputs are self-describing: which build
 * produced them, from which commit, with which command line and config.
 *
 * Build type and git SHA are baked in at compile time (MOC_BUILD_TYPE /
 * MOC_GIT_SHA, see src/obs/CMakeLists.txt); the command line is recorded by
 * ObsExportGuard / moc_cli's Main, and the config digest by
 * MocCheckpointSystem when a run binds one.
 */

#include <cstdint>
#include <string>

namespace moc::json {
class Writer;
}

namespace moc::obs {

/** Schema tag stamped into every export this layer writes. */
inline constexpr const char* kExportSchema = "moc-obs/1";

/** What we know about the producing run. */
struct RunMetadata {
    std::string schema = kExportSchema;
    /** CMake build type ("Debug", "Release", ...; "unknown" outside CMake). */
    std::string build_type;
    /** Short git SHA at configure time, or "unknown". */
    std::string git_sha;
    /** argv[0..n] of the producing process, space-joined. */
    std::string command_line;
    /** CRC-32C (hex) of the bound MocSystemConfig, or empty. */
    std::string config_digest;
    /** Cluster role of the producing process ("coordinator", "rank2", or
        empty for single-process runs). */
    std::string role;
};

/** The process-wide metadata record (compile-time fields pre-filled). */
RunMetadata& RunMeta();

/** Records the producing command line (called by the flag plumbing). */
void SetRunCommandLine(int argc, const char* const* argv);

/** Records the active config digest (called by MocCheckpointSystem). */
void SetRunConfigDigest(const std::string& digest_hex);

/** Records this process's cluster role (called by cluster drivers). */
void SetRunRole(const std::string& role);

/**
 * Publishes the coordinator-relative clock offset (coordinator clock minus
 * local clock, nanoseconds; see net/clock_sync.h). The transport refreshes
 * it on every accepted ping/pong sample; exporters stamp the value current
 * at export time into every artifact so per-role traces and journals can
 * be rebased onto the coordinator's timeline (obs/merge.h). Zero — the
 * default — means "already on the coordinator clock".
 */
void SetClusterClockOffsetNs(std::int64_t offset_ns);

/** The last published coordinator-relative offset (0 until aligned). */
std::int64_t ClusterClockOffsetNs();

/**
 * Writes RunMeta() and the current clock offset as members of the object
 * @p w has open: `"schema": "moc-obs/1", "build_type": ..., "role": ...,
 * "clock_offset_ns": ...`.
 */
void WriteRunMetaFields(json::Writer& w);

}  // namespace moc::obs

#endif  // MOC_OBS_RUN_META_H_
