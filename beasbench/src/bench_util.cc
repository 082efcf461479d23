#include "bench_util.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

namespace beasbench {

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double UsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string SerializeRows(const std::vector<beas::Tuple>& rows) {
  std::string out;
  char buf[64];
  for (const beas::Tuple& row : rows) {
    for (const beas::Value& v : row) {
      switch (v.type()) {
        case beas::DataType::kInt64:
          std::snprintf(buf, sizeof(buf), "i%" PRId64 ",", v.as_int64());
          out += buf;
          break;
        case beas::DataType::kDouble:
          std::snprintf(buf, sizeof(buf), "d%a,", v.as_double());
          out += buf;
          break;
        case beas::DataType::kString:
          out += 's';
          out += std::to_string(v.as_string().size());
          out += ':';
          out += v.as_string();
          out += ',';
          break;
        default:
          out += "n,";
      }
    }
    out += '\n';
  }
  return out;
}

std::string SerializeAnswer(const std::vector<beas::Tuple>& rows, double eta,
                            double d_prime, uint64_t accessed, bool exact) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "eta=%a d'=%a accessed=%" PRIu64 " exact=%d\n", eta,
                d_prime, accessed, exact ? 1 : 0);
  return SerializeRows(rows) + buf;
}

std::string CheckInvariants(const AnswerFacts& a, double alpha, size_t db_size) {
  uint64_t budget =
      static_cast<uint64_t>(std::floor(alpha * static_cast<double>(db_size)));
  std::ostringstream os;
  if (a.accessed > budget) {
    os << "accessed " << a.accessed << " > floor(alpha*|D|) = " << budget;
  } else if (!(a.eta > 0) || a.eta > 1) {
    os << "eta " << a.eta << " outside (0, 1]";
  } else if (a.exact && a.eta != 1) {
    os << "exact answer with eta " << a.eta << " != 1";
  }
  return os.str();
}

bool RcBelowEta(double rc, double eta) { return rc < eta * (1 - 1e-9); }

bool RoundScheduler::Claim(uint64_t* index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (limit_ == UINT64_MAX && Clock::now() >= deadline_) {
    limit_ = (next_ + round_size_ - 1) / round_size_ * round_size_;
  }
  if (next_ >= limit_) return false;
  *index = next_++;
  return true;
}

uint64_t RoundScheduler::claimed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

std::vector<size_t> RoundOrder(size_t n, uint64_t seed, uint64_t round) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + round);
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(rng() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

namespace {

uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

RssSampler::~RssSampler() { Stop(); }

void RssSampler::Start() {
  if (running_.exchange(true)) return;
  peak_bytes_ = CurrentRssBytes();
  thread_ = std::thread([this] {
    while (running_.load()) {
      uint64_t now = CurrentRssBytes();
      if (now > peak_bytes_.load()) peak_bytes_ = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void RssSampler::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
  uint64_t now = CurrentRssBytes();
  if (now > peak_bytes_.load()) peak_bytes_ = now;
}

double RssSampler::PeakMb() const {
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

void ReleaseFreeHeap() { malloc_trim(0); }

const std::vector<std::string>& TracedSpanNames() {
  static const std::vector<std::string> kNames{
      "queue_wait", "epoch_wait", "plan", "plan.chase", "plan.chat",
      "fetch",      "dq_build",   "eval", "stream"};
  return kNames;
}

void LayerSamples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void LayerSamples::AddRatio(const std::string& name, double num, double den) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& r = ratios_[name];
  r.first += num;
  r.second += den;
}

namespace {

// Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

const std::map<std::string, std::string>& SpanMetric() {
  static const std::map<std::string, std::string> kMap{
      {"plan", "planner.plan_us"},         {"plan.chase", "planner.chase_us"},
      {"plan.chat", "planner.chat_us"},    {"fetch", "executor.fetch_us"},
      {"dq_build", "engine.dq_build_us"},  {"eval", "engine.eval_us"},
      {"queue_wait", "service.queue_wait_us"},
      {"epoch_wait", "service.epoch_wait_us"}};
  return kMap;
}

}  // namespace

void LayerSamples::AddTrace(const std::vector<beas::TraceSpan>& spans,
                            const std::map<std::string, int64_t>& attrs,
                            double latency_us) {
  std::map<std::string, double> dur;
  std::map<std::string, double> self;
  std::vector<std::pair<double, double>> all;
  for (const auto& s : spans) {
    double b = static_cast<double>(s.start_us);
    double e = b + static_cast<double>(s.dur_us);
    all.emplace_back(b, e);
    dur[s.name] += static_cast<double>(s.dur_us);
    // Self time: the span minus the part its nested spans cover.
    std::vector<std::pair<double, double>> inner;
    for (const auto& c : spans) {
      double cb = static_cast<double>(c.start_us);
      double ce = cb + static_cast<double>(c.dur_us);
      if (&c == &s || c.dur_us == 0) continue;
      bool nested = cb >= b && ce <= e && (ce - cb) < (e - b);
      if (nested) inner.emplace_back(cb, ce);
    }
    self[s.name] += static_cast<double>(s.dur_us) - UnionLength(inner);
  }
  double covered = UnionLength(all);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [span, metric] : SpanMetric()) {
    auto it = dur.find(span);
    samples_[metric].push_back(it == dur.end() ? 0.0 : it->second);
  }
  for (const std::string& span : TracedSpanNames()) {
    auto it = self.find(span);
    samples_["self." + span + "_us"].push_back(it == self.end() ? 0.0 : it->second);
  }
  samples_["self.unspanned_us"].push_back(std::max(0.0, latency_us - covered));
  if (latency_us > 0) {
    samples_["trace.span_coverage"].push_back(std::min(1.0, covered / latency_us));
  }
  auto attr = [&](const char* name) -> double {
    auto it = attrs.find(name);
    return it == attrs.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto& hit = ratios_["planner.cache_hit_rate"];
  hit.first += attr("plan_cache_hit");
  hit.second += 1;
  samples_["executor.fetch_ops"].push_back(attr("fetch_ops"));
  samples_["executor.accessed"].push_back(attr("keys_charged"));
  double hits = attr("block_cache_hits"), misses = attr("block_cache_misses");
  auto& bc = ratios_["index.block_cache_hit_rate"];
  bc.first += hits;
  bc.second += hits + misses;
  samples_["index.block_misses"].push_back(misses);
  samples_["engine.filter_windows"].push_back(attr("filter_windows"));
  if (attrs.count("stream_pages") != 0) {
    samples_["service.stream_pages"].push_back(attr("stream_pages"));
    samples_["service.backpressure_us"].push_back(attr("stream_backpressure_us"));
  }
}

void LayerSamples::Merge(const LayerSamples& other) {
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [k, v] : other.samples_) {
    auto& dst = samples_[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& [k, r] : other.ratios_) {
    ratios_[k].first += r.first;
    ratios_[k].second += r.second;
  }
}

std::map<std::string, double> LayerSamples::Reduce() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [k, v] : samples_) out[k] = Median(v);
  for (const auto& [k, r] : ratios_) out[k] = r.second > 0 ? r.first / r.second : 0;
  return out;
}

void RunResult::Breach(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu);
  correct = false;
  if (breaches.size() < 20) breaches.push_back(what);
}

void EmitEndToEnd(const EndToEnd& e, RunResult* out) {
  const LatencySamples& l = e.latency;
  out->metrics = {
      {"setup_s", e.setup_s, "s"},
      {"qps", e.qps, "queries/s"},
      {"query_p50_ms", Percentile(l.total_ms, 0.50), "ms"},
      {"query_p99_ms", Percentile(l.total_ms, 0.99), "ms"},
      {"first_rows_p50_ms", Percentile(l.first_rows_ms, 0.50), "ms"},
      {"rc_accuracy_mean", e.rc_accuracy_mean, "ratio"},
      {"eta_mean", Mean(l.eta), "ratio"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"index_entries", e.index_entries, "count"},
  };
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> v{
        {"ra.parse_us", "us"},
        {"planner.plan_us", "us"},
        {"planner.chase_us", "us"},
        {"planner.chat_us", "us"},
        {"planner.cache_hit_rate", "ratio"},
        {"executor.fetch_us", "us"},
        {"executor.fetch_ops", "count"},
        {"executor.accessed", "count"},
        {"index.block_cache_hit_rate", "ratio"},
        {"index.block_misses", "count"},
        {"index.file_growth_mb", "MB"},
        {"index.build_s", "s"},
        {"engine.dq_build_us", "us"},
        {"engine.eval_us", "us"},
        {"engine.filter_windows", "count"},
        {"service.queue_wait_us", "us"},
        {"service.epoch_wait_us", "us"},
        {"service.write_ms", "ms"},
        {"service.stream_pages", "count"},
        {"service.backpressure_us", "us"},
        {"net.query_ok_us", "us"},
        {"net.fetch_rtt_us", "us"},
        {"net.bytes_per_row", "B/row"},
    };
    for (const std::string& span : TracedSpanNames()) {
      v.emplace_back("self." + span + "_us", "us");
    }
    v.emplace_back("self.unspanned_us", "us");
    v.emplace_back("trace.overhead_ratio", "ratio");
    v.emplace_back("trace.span_coverage", "ratio");
    return v;
  }();
  return kNames;
}

void EmitPerLayer(const std::map<std::string, double>& reduced, RunResult* out) {
  out->metrics.clear();
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = reduced.find(name);
    out->metrics.push_back({name, it == reduced.end() ? 0.0 : it->second, unit});
  }
}

void PrintResult(const RunResult& r) {
  for (const std::string& b : r.breaches) std::fprintf(stderr, "CHECK FAILED: %s\n", b.c_str());
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace beasbench
