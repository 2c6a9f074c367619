#include "obs/rolling_window.h"

#include <algorithm>

#include "obs/export.h"

namespace privrec::obs {

RollingWindows::RollingWindows(int64_t width_ms, WindowBudget budget,
                               size_t max_windows)
    : width_ms_(std::max<int64_t>(1, width_ms)),
      max_windows_(std::max<size_t>(1, max_windows)),
      budget_(budget) {
  series_.width_ms = width_ms_;
}

void RollingWindows::Observe(int64_t now_ms, RequestOutcome outcome,
                             bool degraded, double latency_ms) {
  AdvanceTo(now_ms);
  if (!open_) {
    // First event ever: open the window owning now_ms, aligned to the
    // width grid so window boundaries are a property of the timeline,
    // not of the first arrival.
    current_ = WindowStats{};
    current_.index = 0;
    current_.start_ms = (now_ms / width_ms_) * width_ms_;
    current_.width_ms = width_ms_;
    current_latency_ = LatencyRecorder();
    open_ = true;
  }
  ++observed_;
  ++current_.requests;
  switch (outcome) {
    case RequestOutcome::kOk:
      ++current_.ok;
      break;
    case RequestOutcome::kShed:
      ++current_.shed;
      break;
    case RequestOutcome::kExpired:
      ++current_.expired;
      break;
    default:
      ++current_.errors;
      break;
  }
  if (degraded) ++current_.degraded;
  current_latency_.Observe(latency_ms);
}

int64_t RollingWindows::AdvanceTo(int64_t now_ms) {
  if (!open_) return 0;
  int64_t closed = 0;
  while (current_.start_ms + width_ms_ <= now_ms) {
    const int64_t next_start = current_.start_ms + width_ms_;
    const int64_t next_index = current_.index + 1;
    CloseCurrent();
    ++closed;
    current_ = WindowStats{};
    current_.index = next_index;
    current_.start_ms = next_start;
    current_.width_ms = width_ms_;
    current_latency_ = LatencyRecorder();
  }
  return closed;
}

void RollingWindows::Flush() {
  if (!open_) return;
  CloseCurrent();
  open_ = false;
}

double RollingWindows::burn_rate() const {
  if (budget_.lookback <= 0) return 0.0;
  int64_t breaching = 0;
  for (char bit : breach_ring_) breaching += bit;
  return static_cast<double>(breaching) /
         static_cast<double>(budget_.lookback);
}

void RollingWindows::CloseCurrent() {
  WindowStats& w = current_;
  w.rps = static_cast<double>(w.requests) * 1000.0 /
          static_cast<double>(width_ms_);
  w.shed_rate = w.requests > 0 ? static_cast<double>(w.shed) /
                                     static_cast<double>(w.requests)
                               : 0.0;
  const HistogramSample latency = current_latency_.Sample("");
  w.p50_ms = HistogramQuantile(latency, 0.50);
  w.p99_ms = HistogramQuantile(latency, 0.99);
  w.p999_ms = HistogramQuantile(latency, 0.999);

  if (budget_.p99_ms >= 0.0 && w.p99_ms > budget_.p99_ms) {
    w.breach = true;
    w.breach_reason = "p99 " + JsonNumber(w.p99_ms) +
                      "ms exceeds window budget " +
                      JsonNumber(budget_.p99_ms) + "ms";
  } else if (budget_.max_shed_rate >= 0.0 &&
             w.shed_rate > budget_.max_shed_rate) {
    w.breach = true;
    w.breach_reason = "shed rate " + JsonNumber(w.shed_rate) +
                      " exceeds window budget " +
                      JsonNumber(budget_.max_shed_rate);
  }

  if (w.breach) ++breaches_;
  breach_ring_.push_back(w.breach ? 1 : 0);
  while (budget_.lookback > 0 &&
         breach_ring_.size() > static_cast<size_t>(budget_.lookback)) {
    breach_ring_.pop_front();
  }
  const double burn = burn_rate();
  if (burn > budget_.burn_threshold) {
    WindowAlert alert;
    alert.window_index = w.index;
    alert.at_ms = w.start_ms + width_ms_;
    alert.burn_rate = burn;
    alert.reason = w.breach
                       ? w.breach_reason
                       : "burn rate above threshold from earlier windows";
    series_.alerts.push_back(std::move(alert));
  }

  series_.windows.push_back(std::move(current_));
  if (series_.windows.size() > max_windows_) {
    series_.windows.erase(series_.windows.begin());
    ++series_.dropped_windows;
  }
}

std::string WindowStatsToJson(const WindowStats& window) {
  std::string out = "{\"index\": " + std::to_string(window.index);
  out += ", \"start_ms\": " + std::to_string(window.start_ms);
  out += ", \"requests\": " + std::to_string(window.requests);
  out += ", \"ok\": " + std::to_string(window.ok);
  out += ", \"shed\": " + std::to_string(window.shed);
  out += ", \"expired\": " + std::to_string(window.expired);
  out += ", \"errors\": " + std::to_string(window.errors);
  out += ", \"degraded\": " + std::to_string(window.degraded);
  out += ", \"rps\": " + JsonNumber(window.rps);
  out += ", \"shed_rate\": " + JsonNumber(window.shed_rate);
  out += ", \"p50_ms\": " + JsonNumber(window.p50_ms);
  out += ", \"p99_ms\": " + JsonNumber(window.p99_ms);
  out += ", \"p999_ms\": " + JsonNumber(window.p999_ms);
  out += std::string(", \"breach\": ") +
         (window.breach ? "true" : "false");
  if (window.breach) {
    out += ", \"breach_reason\": \"" + JsonEscape(window.breach_reason) +
           "\"";
  }
  out += "}";
  return out;
}

std::string WindowAlertToJson(const WindowAlert& alert) {
  return "{\"type\": \"alert\", \"window\": " +
         std::to_string(alert.window_index) +
         ", \"at_ms\": " + std::to_string(alert.at_ms) +
         ", \"burn_rate\": " + JsonNumber(alert.burn_rate) +
         ", \"reason\": \"" + JsonEscape(alert.reason) + "\"}";
}

std::string WindowSeriesToJson(const WindowSeries& series) {
  std::string out =
      "{\"width_ms\": " + std::to_string(series.width_ms) +
      ", \"dropped_windows\": " + std::to_string(series.dropped_windows) +
      ", \"windows\": [";
  for (size_t i = 0; i < series.windows.size(); ++i) {
    if (i > 0) out += ", ";
    out += WindowStatsToJson(series.windows[i]);
  }
  out += "], \"alerts\": [";
  for (size_t i = 0; i < series.alerts.size(); ++i) {
    if (i > 0) out += ", ";
    out += WindowAlertToJson(series.alerts[i]);
  }
  out += "]}";
  return out;
}

}  // namespace privrec::obs
