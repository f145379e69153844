// Binary (de)serialization of parameter lists, so trained SpectraGAN
// models can be saved and reloaded (e.g. the pre-trained-model workflow
// the paper describes for releasing synthetic datasets).

#pragma once

#include <string>
#include <vector>

#include "nn/autograd.h"

namespace spectra::nn {

// Write shapes + float data for each parameter, in order, replacing
// `path` atomically (binio::write_file_atomic). Throws spectra::Error on
// I/O failure.
void save_parameters(const std::string& path, const std::vector<Var>& params);

// Load into existing parameters; count and shapes must match exactly and
// the file must end after the last parameter. Throws spectra::Error.
void load_parameters(const std::string& path, std::vector<Var>& params);

}  // namespace spectra::nn
