#pragma once

// In-memory spans for the traced pass. Each span records a name, start and
// end (steady clock, ns since the tracer was built), the span that caused
// it, and the id of the operation it belongs to; spans are kept in memory
// and written out once, when the run ends. Spans nest strictly: a span ends
// before its parent does.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the causing span; -1 for a root
  std::uint64_t op = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Per span: its duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once, and a child is
/// clipped to its parent's interval).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

class Tracer {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int begin(std::string name, std::uint64_t op);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span named `name`, in start order.
  std::vector<double> durations_ms(std::string_view name) const;
  /// One JSON object per span per line, with its self time.
  void write_jsonl(std::ostream& out) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::uint64_t op)
      : tracer_(tracer), id_(tracer.begin(std::move(name), op)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
