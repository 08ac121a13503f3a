/**
 * @file
 * Calibration probes: the ceilings each layer's throughput is read against,
 * measured in the same process at the workload's own sizes.
 */

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "bench.h"
#include "core/moc_system.h"
#include "storage/delta_codec.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Where probe results are folded so the probed calls cannot be elided. */
volatile std::uint64_t g_sink = 0;

/** Throughput in GB/s (1e9 bytes per second) of @p bytes moved in @p seconds. */
double
Gbps(double bytes, double seconds) {
    return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

/**
 * Median wall seconds of @p reps calls of @p fn.
 */
template <typename Fn>
double
MedianSeconds(std::size_t reps, Fn&& fn) {
    Samples s;
    for (std::size_t i = 0; i < reps; ++i) {
        const double t0 = NowS();
        fn();
        s.Add(NowS() - t0);
    }
    return s.Median();
}

/** Repetitions per timed batch: enough calls to move about 64 MiB. */
std::size_t
BatchCalls(std::size_t bytes) {
    return std::max<std::size_t>(1, (64U << 20) / std::max<std::size_t>(1, bytes));
}

/** GB/s of @p fn over @p bytes per call; median of 5 batches. */
template <typename Fn>
double
ProbeGbps(std::size_t bytes, Fn&& fn) {
    const std::size_t calls = BatchCalls(bytes);
    const double s = MedianSeconds(5, [&] {
        for (std::size_t i = 0; i < calls; ++i) {
            fn();
        }
    });
    return Gbps(static_cast<double>(bytes * calls), s);
}

/** Median seconds of one fsync of a freshly written 4 KiB file in @p dir. */
double
FsyncSeconds(const std::filesystem::path& dir) {
    const std::filesystem::path path = dir / "fsync_probe.tmp";
    const std::vector<char> page(4096, 'x');
    Samples s;
    for (int i = 0; i < 30; ++i) {
        const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                              0644);
        if (fd < 0) {
            break;
        }
        const bool wrote =
            ::write(fd, page.data(), page.size()) ==
            static_cast<ssize_t>(page.size());
        const double t0 = NowS();
        const bool synced = ::fsync(fd) == 0;
        const double took = NowS() - t0;
        ::close(fd);
        if (wrote && synced) {
            s.Add(took);
        }
    }
    std::filesystem::remove(path);
    return s.Median();
}

}  // namespace

void
RunProbes(const ProbeShape& shape, const std::vector<moc::ParamGroup>& groups,
          const std::filesystem::path& dir, Result& result) {
    const std::size_t n = shape.shard_bytes;
    moc::Rng rng(n);
    Blob src(n);
    for (auto& b : src) {
        b = static_cast<std::uint8_t>(rng.Next());
    }
    Blob dst(n);
    std::uint64_t sink = 0;

    result.Add("sys.memcpy_gbps", ProbeGbps(n, [&] {
                   std::memcpy(dst.data(), src.data(), n);
                   sink += dst[sink % n];
               }));
    result.Add("util.crc32c_gbps",
               ProbeGbps(n, [&] { sink += moc::Crc32c(src.data(), n); }));
    result.Add("util.crc32_gbps",
               ProbeGbps(n, [&] { sink += moc::Crc32(src.data(), n); }));
    result.Add("util.fnv1a64_gbps",
               ProbeGbps(n, [&] { sink += moc::Fnv1a64(src.data(), n); }));
    result.Add("delta.hash_chunks_gbps", ProbeGbps(n, [&] {
                   sink += moc::HashChunks(src, shape.chunk_bytes).size();
               }));

    // Encode/apply: the changed chunks spread evenly over the grid.
    const std::size_t chunks = (n + shape.chunk_bytes - 1) / shape.chunk_bytes;
    std::vector<std::uint32_t> changed;
    for (std::size_t i = 0; i < shape.changed_chunks && i < chunks; ++i) {
        changed.push_back(static_cast<std::uint32_t>(i * chunks /
                                                     shape.changed_chunks));
    }
    Blob record;
    const std::size_t calls = BatchCalls(n);
    const double encode_s = MedianSeconds(5, [&] {
        for (std::size_t i = 0; i < calls; ++i) {
            record = moc::EncodeDelta(src, changed, shape.chunk_bytes, 0);
        }
    });
    result.Add("delta.encode_s_per_shard", encode_s / static_cast<double>(calls));
    const double apply_s = MedianSeconds(5, [&] {
        for (std::size_t i = 0; i < calls; ++i) {
            sink += moc::ApplyDelta(record, dst).size();
        }
    });
    result.Add("delta.apply_s_per_shard", apply_s / static_cast<double>(calls));

    // Serialization over the workload's own parameter groups.
    std::size_t group_bytes = 0;
    const double serialize_s = MedianSeconds(5, [&] {
        group_bytes = 0;
        for (const moc::ParamGroup& group : groups) {
            for (const bool weights : {true, false}) {
                group_bytes += moc::SerializeParamList(group.params, weights).size();
            }
        }
    });
    result.Add("core.serialize_gbps",
               Gbps(static_cast<double>(group_bytes), serialize_s));

    result.Add("sys.fsync_s_p50", FsyncSeconds(dir));
    g_sink = sink;
}

}  // namespace perfbench
