#include "distinguisher/distinguisher.h"

#include <stdexcept>
#include <string>

namespace fd::distinguisher {

Distinguisher::~Distinguisher() = default;

void Distinguisher::check_batch(std::span<const TraceObservation> batch, std::size_t columns,
                                const char* backend) const {
  const std::size_t want = num_guesses() * columns;
  for (const TraceObservation& obs : batch) {
    if (obs.hypotheses.size() != want || obs.samples.size() < columns) {
      throw std::invalid_argument(std::string(backend) + ": observation has " +
                                  std::to_string(obs.hypotheses.size()) + " hypotheses and " +
                                  std::to_string(obs.samples.size()) + " samples, needs " +
                                  std::to_string(want) + " and at least " +
                                  std::to_string(columns));
    }
  }
}

}  // namespace fd::distinguisher
