//! The one figure program: `gre-figs <figure> [flags]` runs one row of
//! [`FIGURES`] with the shared [`RunOpts`] flags. A missing or unknown
//! figure name, like a mistyped flag, exits 2 and says what would have been
//! accepted.

use gre_bench::figures::FIGURES;
use gre_bench::RunOpts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next();
    let Some(figure) = FIGURES.iter().find(|f| Some(f.name) == name.as_deref()) else {
        eprintln!("usage: gre-figs <figure> [flags], where <figure> is one of");
        for f in FIGURES {
            eprintln!("  {:<26} {}", f.name, f.title);
        }
        return ExitCode::from(2);
    };
    match RunOpts::parse(args) {
        Ok(opts) => {
            (figure.run)(&opts);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("gre-figs {}: {message}", figure.name);
            ExitCode::from(2)
        }
    }
}
