// farmer-lint-fixture: path=src/serve/bad_loop.cc expect=event-loop-blocking
// Sleeping, loading files and decoding farm segments inside a marked
// event-loop region.
#include <chrono>
#include <thread>

namespace farmer {

// farmer-lint: begin(event-loop)

void TickSlowly() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

bool DecodeOnTheLoop(std::string_view wire, std::vector<MineSegment>* out) {
  return DecodeSegments(wire, 8, out).ok();
}

// farmer-lint: end(event-loop)

}  // namespace farmer
