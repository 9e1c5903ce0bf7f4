#pragma once

// The rcfgd stream-serving loop: drive one Engine from an input stream of
// requests and write one response per request to an output stream, in
// either wire framing. Tests and examples call it directly on string
// streams.
//
//   * Framing — kAuto (default) peeks the first input byte: 0xB5 (the
//     binary stream magic, framing.h) selects binary frames, anything else
//     selects JSON-lines. Responses use the same framing as requests; a
//     binary stream's output begins with the magic so clients can
//     auto-detect it symmetrically.
//   * Directives — in JSON-lines, blank lines and lines starting with '#'
//     are skipped; "#pause" / "#resume" gate worker dispatch (see
//     Engine::pause), so a transcript can deterministically force a run of
//     requests into one coalesced batch.
//   * Robustness — the response emitter never throws (a sink failure is
//     counted and swallowed: responses are delivery-best-effort once the
//     request has been applied), and the serving loop drains the engine
//     via a scope guard BEFORE its locals unwind, so an exception anywhere
//     in the read loop cannot destroy the output mutex while worker
//     callbacks still reference it.

#include <iosfwd>

#include "service/engine.h"
#include "service/framing.h"

namespace rcfg::service {

struct ServiceOptions {
  EngineOptions engine;  ///< includes max_sessions (admission control)
  Framing framing = Framing::kAuto;
};

/// Serve requests from `in` until EOF; all responses are written to `out`
/// (completion order across sessions, FIFO within one) before returning.
void run_service(std::istream& in, std::ostream& out, const ServiceOptions& options = {});

}  // namespace rcfg::service
