// The arrival-process parameters every arrival generator shares: one
// validity check and the diurnal wave.  run_online's arrival stream,
// simulate() and generate_arrival_stream all draw exponential (or uniform)
// gaps from a rate, and the first and last bend them with the same wave.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace edgerep {

/// Throws std::invalid_argument ("<who>: ...") unless `rate` is finite and
/// > 0 and the wave amplitude and period are finite and >= 0.
inline void check_arrival_params(const char* who, double rate,
                                 double wave_amplitude = 0.0,
                                 double wave_period = 0.0) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument(std::string(who) +
                                ": arrival rate must be finite and > 0");
  }
  if (!(wave_amplitude >= 0.0) || !std::isfinite(wave_amplitude) ||
      !(wave_period >= 0.0) || !std::isfinite(wave_period)) {
    throw std::invalid_argument(
        std::string(who) +
        ": wave amplitude and period must be finite and >= 0");
  }
}

/// `gap` divided by the wave's rate modulation 1 + amplitude·sin(2π·t /
/// period) at time `t`, clamped at 0.05.  With either knob at 0 the wave is
/// off and `gap` comes back unchanged, so the gap draws — and every arrival
/// time drawn without a wave — are the same either way.
inline double wave_gap(double gap, double t, double amplitude, double period) {
  if (!(amplitude > 0.0 && period > 0.0)) return gap;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  double mod = 1.0 + amplitude * std::sin(kTwoPi * t / period);
  if (mod < 0.05) mod = 0.05;
  return gap / mod;
}

}  // namespace edgerep
