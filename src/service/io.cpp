#include "service/io.h"

#include <atomic>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace rcfg::service {

void run_service(std::istream& in, std::ostream& out, const ServiceOptions& options) {
  Engine engine(options.engine);

  // Everything `emit` touches must outlive the DrainGuard below, so that an
  // exception unwinding this frame drains the engine (flushing worker
  // callbacks through emit) while the mutex and streams are still alive.
  std::atomic<std::uint64_t> sink_errors{0};
  std::mutex out_mu;
  bool binary_out = false;    // set once, before any request is submitted
  bool wrote_magic = false;   // guarded by out_mu
  // The request has already been applied by the time emit runs; a response
  // we cannot deliver must not take the serving loop (or a worker thread)
  // down with it. Two failure shapes: a streambuf exception that escapes
  // the stream (caller opted into exceptions()), and the default-mode
  // version where operator<< swallows it and just sets badbit. Both are
  // counted, and the stream is cleared so one failed write doesn't turn
  // every later response into a silent no-op on a wedged stream.
  const auto emit = [&](const Response& r) noexcept {
    try {
      const std::lock_guard<std::mutex> lock(out_mu);
      try {
        if (binary_out) {
          if (!wrote_magic) {
            write_magic(out);
            wrote_magic = true;
          }
          std::string payload;
          encode_value(response_value(r), payload);
          write_frame(out, payload);
          out.flush();
        } else {
          out << serialize_response(r) << std::endl;  // flush per line: pipes
        }
        if (!out) {
          sink_errors.fetch_add(1, std::memory_order_relaxed);
          out.clear();
        }
      } catch (...) {
        sink_errors.fetch_add(1, std::memory_order_relaxed);
        try {
          out.clear();
        } catch (...) {
        }
      }
    } catch (...) {
      // Lock acquisition itself failed; nothing left to do safely.
      sink_errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Declared after emit/out_mu so it is destroyed FIRST: whatever unwinds
  // this frame, the engine quiesces before emit's captures die. Without
  // this, ~Engine's implicit drain would run worker callbacks against an
  // already-destroyed mutex.
  struct DrainGuard {
    Engine& engine;
    ~DrainGuard() {
      try {
        engine.drain();
      } catch (...) {
      }
    }
  } guard{engine};

  Framing framing = options.framing;
  if (framing == Framing::kAuto) {
    const int first = in.peek();
    if (first == std::char_traits<char>::eof()) return;
    framing = static_cast<unsigned char>(first) == kFramingMagic[0] ? Framing::kBinary
                                                                    : Framing::kJsonl;
  }
  binary_out = framing == Framing::kBinary;

  if (framing == Framing::kBinary) {
    try {
      read_magic(in);
    } catch (const FramingError& e) {
      engine.metrics().errors_total.inc();
      emit(error_response(0, std::string("framing: ") + e.what()));
      return;
    }
    std::string payload;
    for (;;) {
      bool got = false;
      try {
        got = read_frame(in, payload);
      } catch (const FramingError& e) {
        // Truncated header/payload: the stream offset is lost, end the
        // connection (after answering so the client sees why).
        engine.metrics().errors_total.inc();
        emit(error_response(0, std::string("framing: ") + e.what()));
        break;
      }
      if (!got) break;
      Request req;
      try {
        req = parse_request_doc(decode_value(payload));
      } catch (const FramingError& e) {
        // The frame boundary held; only the value inside was malformed, so
        // the next frame is still addressable — answer and keep serving.
        engine.metrics().errors_total.inc();
        emit(error_response(0, std::string("framing: ") + e.what()));
        continue;
      } catch (const ProtocolError& e) {
        engine.metrics().errors_total.inc();
        emit(error_response(0, e.what()));
        continue;
      }
      engine.submit(std::move(req), emit);
    }
    return;
  }

  std::string line;
  while (std::getline(in, line)) {
    std::string_view view(line);
    while (!view.empty() && (view.front() == ' ' || view.front() == '\t')) view.remove_prefix(1);
    while (!view.empty() && (view.back() == '\r' || view.back() == ' ')) view.remove_suffix(1);
    if (view.empty() || view.front() == '#') {
      // Two comment directives make replayed transcripts deterministic:
      // "#pause" queues everything until "#resume", forcing the requests in
      // between into one batch regardless of machine speed.
      if (view == "#pause") engine.pause();
      if (view == "#resume") engine.resume();
      continue;
    }

    Request req;
    try {
      req = parse_request(view);
    } catch (const ProtocolError& e) {
      engine.metrics().errors_total.inc();
      emit(error_response(0, e.what()));
      continue;
    }
    engine.submit(std::move(req), emit);
  }
}

}  // namespace rcfg::service
