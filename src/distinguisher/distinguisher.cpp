#include "distinguisher/distinguisher.h"

namespace fd::distinguisher {

Distinguisher::~Distinguisher() = default;

}  // namespace fd::distinguisher
