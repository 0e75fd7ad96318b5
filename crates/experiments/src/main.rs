//! `bmp-experiments <name|all> [--quick | -q] [--out | -o DIR]`: regenerates one table,
//! figure or extension study of the registry, or all of them in registry order.

use bmp_experiments::registry::run_all;
use bmp_experiments::runner::{RunOptions, Selection};

fn main() -> std::io::Result<()> {
    let (selection, options) = RunOptions::from_env();
    match selection {
        Selection::One(experiment) => experiment.execute(&options).map(drop),
        Selection::All => run_all(&options).map(drop),
    }
}
