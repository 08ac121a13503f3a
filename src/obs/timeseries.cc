#include "obs/timeseries.h"

#include "obs/cluster_view.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace moc::obs {

namespace {

/** One point as a JSON object (shared by the window and JSONL forms). */
void
WritePoint(json::Writer& w, const IterationPoint& p) {
    w.BeginObject().Field("iteration", p.iteration).Field("t_s", p.t_s)
        .Field("iter_seconds", p.iter_seconds)
        .Field("bytes_persisted", p.bytes_persisted)
        .Field("bytes_saved", p.bytes_saved).Field("plt", p.plt)
        .Field("live_ranks", p.live_ranks).Field("stragglers", p.stragglers)
        .EndObject();
}

}  // namespace

TimeSeriesRing&
TimeSeriesRing::Instance() {
    static TimeSeriesRing ring;
    return ring;
}

void
TimeSeriesRing::SetCapacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    while (ring_.size() > capacity_) {
        ring_.pop_front();
    }
}

void
TimeSeriesRing::Append(const IterationPoint& point) {
    static Counter& points =
        MetricsRegistry::Instance().GetCounter("obs.series.points");
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(point);
    if (ring_.size() > capacity_) {
        ring_.pop_front();
    }
    ++total_;
    points.Add();
}

std::vector<IterationPoint>
TimeSeriesRing::Window(std::size_t last_n) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = last_n == 0 || last_n > ring_.size() ? ring_.size()
                                                               : last_n;
    return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

std::uint64_t
TimeSeriesRing::total() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

std::string
TimeSeriesRing::Json(std::size_t last_n) const {
    const std::vector<IterationPoint> window = Window(last_n);
    json::Writer w;
    w.BeginObject().Field("schema", "moc-series/1").Field("total", total())
        .Key("points").BeginArray();
    for (const IterationPoint& p : window) {
        WritePoint(w, p);
    }
    w.EndArray().EndObject().EndLine();
    return w.Take();
}

std::string
TimeSeriesRing::Jsonl() const {
    json::Writer w;
    for (const IterationPoint& p : Window(0)) {
        WritePoint(w, p);
        w.EndLine();
    }
    return w.Take();
}

void
TimeSeriesRing::Reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    total_ = 0;
    capacity_ = kDefaultCapacity;
}

IterationPoint
CapturePoint(std::uint64_t iteration, double iter_seconds) {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    static Counter& ckpt_bytes = registry.GetCounter("ckpt.persist_bytes");
    static Counter& cluster_bytes =
        registry.GetCounter("cluster.bytes_written");
    static Counter& deduped = registry.GetCounter("cluster.bytes_deduped");
    static Counter& delta_saved =
        registry.GetCounter("cluster.delta.bytes_saved");
    static Gauge& plt = registry.GetGauge("ckpt.plt");

    IterationPoint point;
    point.iteration = iteration;
    point.t_s = static_cast<double>(Tracer::NowNs()) / 1e9;
    point.iter_seconds = iter_seconds;
    point.bytes_persisted = ckpt_bytes.value() + cluster_bytes.value();
    point.bytes_saved = deduped.value() + delta_saved.value();
    // The gauge rests at 0 before the first checkpoint computes a ledger
    // PLT; report "unknown" rather than a fake perfect score.
    const double plt_now = plt.value();
    point.plt = plt_now > 0.0 ? plt_now : -1.0;

    std::uint64_t alive = 0;
    std::uint64_t straggling = 0;
    const auto health = ClusterAggregator::Instance().Health();
    for (const auto& row : health) {
        alive += row.alive ? 1 : 0;
        straggling += row.straggler ? 1 : 0;
    }
    // No cluster rows = a single-process run: the process itself is alive.
    point.live_ranks = health.empty() ? 1 : alive;
    point.stragglers = straggling;
    return point;
}

void
SampleIteration(std::uint64_t iteration, double iter_seconds) {
    TimeSeriesRing::Instance().Append(CapturePoint(iteration, iter_seconds));
}

}  // namespace moc::obs
