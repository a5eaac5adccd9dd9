//! The timed binary: end-to-end runs, `catalogue`, `compare`. Plain
//! system allocator, no tracing, no probes.

fn main() -> std::process::ExitCode {
    catocs_benchmark::cli::main(None)
}
