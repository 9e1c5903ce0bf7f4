// rcfgd — the RealConfig verification daemon.
//
// Speaks the service protocol on stdin/stdout, or on files when given as
// positional arguments — so it can be driven interactively, from a pipe, or
// replayed from a transcript:
//
//   $ rcfgd                               # stdin -> stdout
//   $ rcfgd requests.jsonl                # file  -> stdout
//   $ rcfgd requests.jsonl replies.jsonl  # file  -> file
//
// The wire framing (JSON-lines or length-prefixed binary, framing.h) is
// auto-detected from the first input byte by default.
//
// Flags:
//   --workers N         worker threads (default 2)
//   --read-workers N    replica read threads (default 2)
//   --queue N           per-session queue capacity before backpressure
//                       (default 64)
//   --max-sessions N    deny opens once live sessions plus opens in flight
//                       reach N (default unlimited)
//   --reject-on-full    answer "backpressure" errors instead of blocking
//                       when a session queue is full
//   --framing auto|jsonl|binary   wire framing (default auto)
//   --no-coalesce       process every propose individually (debugging aid)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "service/cli.h"
#include "service/io.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--read-workers N] [--queue N] [--max-sessions N]\n"
               "       %*s [--reject-on-full] [--framing auto|jsonl|binary] [--no-coalesce]\n"
               "       %*s [in [out]]\n",
               argv0, static_cast<int>(std::strlen(argv0)), "",
               static_cast<int>(std::strlen(argv0)), "");
  std::exit(2);
}

unsigned parse_count(const char* argv0, const char* flag, const char* value) {
  if (value == nullptr) usage(argv0);
  const auto n = rcfg::service::parse_count_arg(value);
  if (!n.has_value()) {
    std::fprintf(stderr, "%s: %s wants a positive integer, got '%s'\n", argv0, flag, value);
    std::exit(2);
  }
  return *n;
}

}  // namespace

int main(int argc, char** argv) {
  rcfg::service::ServiceOptions options;
  const char* in_path = nullptr;
  const char* out_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--workers") == 0) {
      options.engine.workers = parse_count(argv[0], arg, value);
      ++i;
    } else if (std::strcmp(arg, "--read-workers") == 0) {
      options.engine.read_workers = parse_count(argv[0], arg, value);
      ++i;
    } else if (std::strcmp(arg, "--queue") == 0) {
      options.engine.queue_capacity = parse_count(argv[0], arg, value);
      ++i;
    } else if (std::strcmp(arg, "--max-sessions") == 0) {
      options.engine.max_sessions = parse_count(argv[0], arg, value);
      ++i;
    } else if (std::strcmp(arg, "--reject-on-full") == 0) {
      options.engine.reject_on_full = true;
    } else if (std::strcmp(arg, "--framing") == 0) {
      if (value == nullptr) usage(argv[0]);
      const auto framing = rcfg::service::parse_framing_arg(value);
      if (!framing.has_value()) {
        std::fprintf(stderr, "%s: --framing wants auto|jsonl|binary, got '%s'\n", argv[0],
                     value);
        std::exit(2);
      }
      options.framing = *framing;
      ++i;
    } else if (std::strcmp(arg, "--no-coalesce") == 0) {
      options.engine.coalesce = false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
    } else if (arg[0] == '-') {
      usage(argv[0]);
    } else if (in_path == nullptr) {
      in_path = arg;
    } else if (out_path == nullptr) {
      out_path = arg;
    } else {
      usage(argv[0]);
    }
  }

  std::ifstream in_file;
  if (in_path != nullptr) {
    in_file.open(in_path, std::ios::binary);
    if (!in_file) {
      std::fprintf(stderr, "%s: cannot open '%s'\n", argv[0], in_path);
      return 1;
    }
  }
  std::ofstream out_file;
  if (out_path != nullptr) {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0], out_path);
      return 1;
    }
  }

  rcfg::service::run_service(in_path != nullptr ? in_file : std::cin,
                             out_path != nullptr ? out_file : std::cout, options);
  return 0;
}
