#pragma once

/// \file library.hpp
/// The in-process workloads' shapes, set-up and checks (library.cpp),
/// shared with the self-test.

#include <cstdint>
#include <memory>
#include <string>

#include "api/session.hpp"
#include "checks.hpp"

namespace perfbench {

using symphase::SampleTarget;

/// Shape of one library workload.
struct LibrarySpec {
  std::string name;
  std::string circuit_text;
  SampleTarget target = SampleTarget::kMeasurements;
  /// Timed runs write b8 through WriterSink (else a consume-only sink).
  bool b8_writer = false;
  /// Shots per timed run on the SymPhase and on the frame backend.
  std::size_t timed_shots = 0;
  std::size_t timed_frame_shots = 0;
  /// Noiseless twin for the all-zero detector check (QEC workloads).
  std::string twin_text;
};

LibrarySpec fig3a_spec();
LibrarySpec fig3c_spec();
LibrarySpec surface_spec();

/// Circuit text -> ready compiled session: the paper's Initialization,
/// as a user of the session API pays it.
std::unique_ptr<symphase::SimulatorSession> set_up(const LibrarySpec& spec);

/// Runs every check of a library workload against `session`, counting
/// the session runs it makes in `attempted`. `corruption` (self-test
/// only) damages the first chunk of every checked stream and the b8
/// bytes.
CheckLog check_library(const LibrarySpec& spec,
                       const symphase::SimulatorSession& session,
                       std::uint64_t seed, Corruption corruption,
                       std::uint64_t* attempted);

}  // namespace perfbench
