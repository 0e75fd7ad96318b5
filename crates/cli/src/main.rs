//! `bmp` binary entry point: a thin wrapper around [`bmp_cli::run`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match bmp_cli::run(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("{error}");
            eprintln!("{}", bmp_cli::USAGE_HINT);
            ExitCode::FAILURE
        }
    }
}
